"""The Glue-Nail surface language: lexer, AST, parser, pretty-printer.

One grammar covers both languages: a module may contain Glue procedures and
NAIL! rules side by side (paper Section 6 -- "a module can contain both Glue
procedures and NAIL! rules, thus allowing the programmer to group predicates
by function, rather than by type").  Glue assignment statements use the
operators ``:=``, ``+=``, ``-=`` and ``+=[keys]``; NAIL! rules use ``:-``.
"""
