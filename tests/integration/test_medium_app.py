"""A medium-sized application, end to end.

The paper (Section 9) reports undergraduates writing "medium sized test
applications in Glue" to shake out the design.  This is that exercise for
the reproduction: a library-circulation system spanning two modules, NAIL!
views, Glue workflows with keyed updates and loops, a foreign clock,
HiLog per-member loan sets, persistence, and demand queries -- one program,
one EDB, every subsystem.
"""

import io

import pytest

from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.terms.term import mk

LIBRARY = """
module catalog;
export available(:Book), overdue(:Member, Book), holdings_report(:Genre, N);
edb book(Book, Genre), copy(Copy, Book), loan(Copy, Member, Due);
from clockmod import clock(:Now);

% --- NAIL! views ------------------------------------------------------
on_loan(Copy) :- loan(Copy, _, _).
available_copy(Copy, Book) :- copy(Copy, Book) & !on_loan(Copy).
available(Book) :- available_copy(_, Book).

proc overdue(:Member, Book)
  return(:Member, Book) :=
    clock(Now) & loan(Copy, Member, Due) & Due < Now & copy(Copy, Book).
end

proc holdings_report(:Genre, N)
  return(:Genre, N) :=
    book(Book, Genre) & copy(C, Book) & group_by(Genre) & N = count(C).
end
end

module circulation;
export checkout(Member, Book:Copy), return_copy(Copy:), member_loans(Member:Book);
from catalog import available(:Book);
from clockmod import clock(:Now);
edb copy(Copy, Book), loan(Copy, Member, Due), loan_log(Copy, Member, Action);

% Each member's loan history is a HiLog set named history(Member).
history(Member)(Book) :- loan_log(Copy, Member, out) & copy(Copy, Book).

proc checkout(Member, Book:Copy)
rels pick(C);
  pick(C) := in(Member, Book) & copy(C, Book) & !loan(C, _, _) &
             Chosen = arbitrary(C) & C = Chosen.
  loan(C, Member, Due) += pick(C) & in(Member, _) & clock(Now) &
                          Due = Now + 14.
  loan_log(C, Member, out) += pick(C) & in(Member, _).
  return(Member, Book:Copy) := in(Member, Book) & pick(Copy).
end

proc return_copy(Copy:)
  loan_log(Copy, M, back) += in(Copy) & loan(Copy, M, _).
  loan(Copy, M, D) -= in(Copy) & loan(Copy, M, D).
  return(Copy:) := in(Copy) & !loan(Copy, _, _).
end

proc member_loans(Member:Book)
  return(Member:Book) := in(Member) & H = history(Member) & H(Book).
end
end
"""


class Clock:
    def __init__(self, now=100):
        self.now = now

    def fn(self, ctx, rows):
        return [(mk(self.now),)]


@pytest.fixture
def app():
    clock = Clock(now=100)
    system = GlueNailSystem(out=io.StringIO())
    system.register_foreign("clockmod", "clock", 1, 0, clock.fn)
    system.load(LIBRARY)
    system.facts(
        "book",
        [("dune", "scifi"), ("emma", "classic"), ("tripods", "scifi")],
    )
    system.facts(
        "copy",
        [("c1", "dune"), ("c2", "dune"), ("c3", "emma"), ("c4", "tripods")],
    )
    return system, clock


class TestLibraryApp:
    def test_initial_availability(self, app):
        system, _ = app
        books = sorted(r[0] for r in rows_to_python(system.query("available(B)?")))
        assert books == ["dune", "emma", "tripods"]

    def test_checkout_updates_views(self, app):
        system, _ = app
        (row,) = system.call("checkout", [("ann", "emma")])
        assert str(row[2]) == "c3"
        # The view reflects the new loan immediately ("current value").
        books = sorted(r[0] for r in rows_to_python(system.query("available(B)?")))
        assert books == ["dune", "tripods"]

    def test_checkout_picks_one_copy(self, app):
        system, _ = app
        (first,) = system.call("checkout", [("ann", "dune")])
        (second,) = system.call("checkout", [("bob", "dune")])
        assert {str(first[2]), str(second[2])} == {"c1", "c2"}
        assert system.call("checkout", [("cat", "dune")]) == []  # none left

    def test_due_dates_use_the_clock(self, app):
        system, clock = app
        clock.now = 250
        system.call("checkout", [("ann", "emma")])
        rows = rows_to_python(system.rows("loan", 3))
        assert rows == [("c3", "ann", 264)]

    def test_overdue_report(self, app):
        system, clock = app
        system.call("checkout", [("ann", "emma")])  # due 114
        clock.now = 200
        rows = rows_to_python(system.call("overdue"))
        assert rows == [("ann", "emma")]
        clock.now = 105
        assert system.call("overdue") == []

    def test_return_frees_the_copy(self, app):
        system, _ = app
        system.call("checkout", [("ann", "emma")])
        assert system.call("return_copy", [("c3",)]) == [(mk("c3"),)]
        books = sorted(r[0] for r in rows_to_python(system.query("available(B)?")))
        assert "emma" in books

    def test_hilog_history_sets(self, app):
        system, _ = app
        system.call("checkout", [("ann", "emma")])
        system.call("return_copy", [("c3",)])
        system.call("checkout", [("ann", "tripods")])
        rows = sorted(r[1] for r in rows_to_python(system.call("member_loans", [("ann",)])))
        assert rows == ["emma", "tripods"]

    def test_holdings_report_groups(self, app):
        system, _ = app
        rows = sorted(rows_to_python(system.call("holdings_report")))
        assert rows == [("classic", 1), ("scifi", 3)]

    def test_demand_query_on_view(self, app):
        system, _ = app
        rows = system.query_magic("on_loan(C)?")
        assert rows == []
        system.call("checkout", [("ann", "emma")])
        rows = system.query("on_loan(c3)?")
        assert len(rows) == 1

    def test_persistence_round_trip(self, app, tmp_path):
        system, clock = app
        system.call("checkout", [("ann", "emma")])
        path = str(tmp_path / "library.gnd")
        system.save_edb(path)

        fresh_clock = Clock(now=500)
        fresh = GlueNailSystem(out=io.StringIO())
        fresh.register_foreign("clockmod", "clock", 1, 0, fresh_clock.fn)
        fresh.load(LIBRARY)
        fresh.load_edb(path)
        # ann's loan (due 114) is long overdue at t=500.
        rows = rows_to_python(fresh.call("overdue"))
        assert rows == [("ann", "emma")]
        # Histories (loan_log + HiLog set) survived too.
        loans = rows_to_python(fresh.call("member_loans", [("ann",)]))
        assert loans == [("ann", "emma")]
