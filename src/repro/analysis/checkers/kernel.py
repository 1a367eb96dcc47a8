"""SIM2xx: the kernel resource/time contract.

The discrete-event kernel trusts its callers: a Resource slot leaks
forever if the owning process dies between acquire and release, a
negative delay corrupts the heap's time order, and a host-blocking call
inside a coroutine stalls the entire simulation (every process shares
the driving thread).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

from repro.analysis.checkers import (
    Checker,
    ancestors,
    canonical,
    dotted,
    import_map,
    is_generator,
)

__all__ = [
    "AcquireReleaseChecker",
    "NegativeDelayChecker",
    "BlockingCallChecker",
    "PrivateQueueChecker",
]


def _receiver(call: ast.Call) -> Optional[str]:
    """Dotted receiver of a method call (``queue.acquire()`` ->
    ``queue``)."""
    if isinstance(call.func, ast.Attribute):
        return dotted(call.func.value)
    return None


def _in_finalbody(node: ast.AST) -> bool:
    """True when ``node`` sits inside the ``finally`` of some try."""
    child = node
    for parent in ancestors(node):
        if isinstance(parent, ast.Try):
            for stmt in parent.finalbody:
                if child is stmt or any(
                    child is sub for sub in ast.walk(stmt)
                ):
                    return True
        child = parent
    return False


class AcquireReleaseChecker(Checker):
    """SIM201: in-function acquire whose release is not in a finally.

    Cross-function hand-off protocols (the LFB acquires in
    ``allocate_queued`` and releases in ``complete``) are out of static
    reach and deliberately not flagged: the check fires only when a
    function contains *both* the ``.acquire()`` and a matching
    ``.release()``, yet no matching release is exception-safe.
    """

    codes = ("SIM201",)

    def check(self, module) -> Iterable:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(module, node)

    def _check_function(self, module, func) -> Iterable:
        acquires: Dict[str, List[ast.Call]] = {}
        releases: Dict[str, List[ast.Call]] = {}
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            receiver = _receiver(node)
            if receiver is None:
                continue
            if node.func.attr == "acquire" and not node.args:
                acquires.setdefault(receiver, []).append(node)
            elif node.func.attr == "release":
                releases.setdefault(receiver, []).append(node)
        for receiver, sites in sorted(acquires.items()):
            matching = releases.get(receiver)
            if not matching:
                continue  # released elsewhere: a hand-off protocol
            if any(_in_finalbody(release) for release in matching):
                continue
            for site in sites:
                yield module.finding(
                    "SIM201",
                    site,
                    f"{receiver}.acquire() is released in this function "
                    "but not from a finally block; an exception thrown "
                    "into the process leaks the slot "
                    "(see OutOfOrderCore._dispatch for the pattern)",
                )


#: delay-taking kernel entry points: name -> index of the delay argument.
_DELAY_CALLS = {"timeout": 0, "delayed": 1, "_schedule": 1, "_schedule_value": 1}


def _possibly_negative(node: ast.AST) -> Optional[str]:
    """A reason string when the expression can plausibly be negative."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return "negated expression"
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ):
        if node.value < 0:
            return f"negative literal {node.value}"
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return "bare subtraction"
    return None


class NegativeDelayChecker(Checker):
    """SIM202: a delay expression that can schedule into the past."""

    codes = ("SIM202",)

    def check(self, module) -> Iterable:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            index = _DELAY_CALLS.get(node.func.attr)
            if index is None or len(node.args) <= index:
                continue
            delay = node.args[index]
            reason = _possibly_negative(delay)
            if reason is None:
                continue
            yield module.finding(
                "SIM202",
                delay,
                f"{node.func.attr}() delay is a {reason}, which can "
                "schedule into the past; clamp with max(0, ...) or "
                "pragma with the proof it cannot go negative",
            )


#: The sanctioned home of the timed queue: the kernel package itself
#: (the timed heap and the frozen ``_reference`` kernel).
_QUEUE_EXEMPT = "repro.sim"


class PrivateQueueChecker(Checker):
    """SIM210: a private priority queue outside ``repro.sim``.

    The kernel's timed heap is the only sanctioned timed queue.  A
    module-private heap keyed by (deadline, seq) duplicates the
    kernel's ordering work and -- worse -- creates a second ordering
    authority that can silently disagree with the kernel's
    (tick, schedule-order) contract.  Schedule one timeout per
    item and close over the payload instead
    (``repro.device.delay.DelayModule.submit`` is the pattern).
    """

    codes = ("SIM210",)

    def check(self, module) -> Iterable:
        name = module.module
        if name == _QUEUE_EXEMPT or name.startswith(_QUEUE_EXEMPT + "."):
            return
        aliases = import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or alias.name.startswith(
                        "heapq."
                    ):
                        yield module.finding(
                            "SIM210",
                            node,
                            "heapq import outside repro.sim; the kernel "
                            "scheduler is the only sanctioned timed "
                            "queue -- schedule per-item timeouts and "
                            "close over the payload",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq":
                    yield module.finding(
                        "SIM210",
                        node,
                        "heapq import outside repro.sim; the kernel "
                        "scheduler is the only sanctioned timed queue "
                        "-- schedule per-item timeouts and close over "
                        "the payload",
                    )
            elif isinstance(node, ast.Call):
                if canonical(node.func, aliases) == "queue.PriorityQueue":
                    yield module.finding(
                        "SIM210",
                        node,
                        "queue.PriorityQueue outside repro.sim; the "
                        "kernel scheduler is the only sanctioned timed "
                        "queue -- schedule per-item timeouts and close "
                        "over the payload",
                    )


#: Host-blocking entry points that must never run inside a coroutine.
_BLOCKING = frozenset(
    {
        "time.sleep",
        "subprocess.run", "subprocess.call", "subprocess.Popen",
        "subprocess.check_call", "subprocess.check_output",
        "os.system", "os.popen", "os.wait", "os.waitpid",
        "socket.socket", "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get", "requests.post", "requests.request",
    }
)

#: Builtins that block on host I/O.
_BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Packages that host no simulation coroutines: harness orchestration,
#: observability, the CLI, and simlint itself.
_HOST_SIDE_PREFIXES = ("repro.harness", "repro.obs", "repro.analysis")


class BlockingCallChecker(Checker):
    """SIM203: blocking host calls inside simulation generators."""

    codes = ("SIM203",)

    def check(self, module) -> Iterable:
        if (
            module.module == "repro.cli"
            or module.module.startswith(_HOST_SIDE_PREFIXES)
        ):
            return
        aliases = import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not is_generator(node):
                continue
            yield from self._check_coroutine(module, node, aliases)

    def _check_coroutine(self, module, func, aliases) -> Iterable:
        todo: List[ast.AST] = list(func.body)
        while todo:
            node = todo.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            name = canonical(node.func, aliases)
            if name is None and isinstance(node.func, ast.Name):
                if node.func.id in _BLOCKING_BUILTINS:
                    name = node.func.id
            if name in _BLOCKING or name in _BLOCKING_BUILTINS:
                yield module.finding(
                    "SIM203",
                    node,
                    f"{name}() blocks the host thread inside a "
                    "simulation coroutine; model waiting with "
                    "sim.timeout()/events instead",
                )
