"""Term model for Glue-Nail.

Terms are the values that live in relation attributes (paper Section 2):
atoms (which double as strings -- "In Glue there is no difference between
atoms and strings"), numbers, and compound terms.  Following HiLog (paper
Section 5), the functor of a compound term may itself be an arbitrary term,
not just an atom.  Variables appear only in programs, never inside stored
relations: relations hold completely ground tuples, so the engine uses
*matching*, not full unification.
"""
