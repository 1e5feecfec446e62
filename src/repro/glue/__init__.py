"""Glue run-time semantics: aggregate operators, built-in procedures and
scalar functions (paper Sections 2, 3.3, 4)."""
