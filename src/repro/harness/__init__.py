"""Experiment harness: runners, normalization, figures, reports."""
