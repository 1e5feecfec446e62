"""HiLog-style higher-order support (paper Section 5).

Set-valued attributes hold *predicate names*, not extensions: "a set valued
attribute contains the name of a predicate (i.e. the name of a set)".  Two
set attributes are equal when their names match -- a string comparison --
and member-level equality is an explicit operation (the paper's ``set_eq``
procedure), which this package also provides as a library function.
"""
