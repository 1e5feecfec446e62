"""Command-line interface: ``gluenail`` (or ``python -m repro.core.cli``).

Subcommands::

    gluenail check  program.glue              # parse + compile only
    gluenail run    program.glue [options]    # run the script / a procedure
    gluenail query  program.glue "p(1, X)?"   # ad-hoc query
    gluenail nail2glue program.glue           # print the generated Glue code
    gluenail serve  --db DIR [options]        # concurrent TCP query server
    gluenail connect [--host H --port P]      # REPL against a live server

Common options: ``--edb facts.gnd`` loads an EDB dump before running,
``--db DIR`` opens a durable database directory (WAL + checkpoint, with
crash recovery), ``--save facts.gnd`` persists the EDB afterwards,
``--stats`` prints the cost counters, ``--trace-json FILE`` streams the
execution trace as JSON lines.  ``query --explain-analyze`` prints the
plan annotated with actual rows, counter deltas and timings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError
from repro.terms.printer import tuple_to_str


def _build_system(args) -> GlueNailSystem:
    if getattr(args, "db", None):
        system = GlueNailSystem.open(args.db, strict=args.strict)
    else:
        system = GlueNailSystem(strict=args.strict)
    if getattr(args, "trace_json", None):
        from repro.obs.tracer import JsonLinesSink

        stream = open(args.trace_json, "w", encoding="utf-8")
        system.tracer.add_sink(JsonLinesSink(stream))
    system.load_file(args.program)
    if args.edb:
        system.load_edb(args.edb)
    if getattr(args, "facts_dir", None):
        system.load_facts_dir(args.facts_dir)
    return system


def _print_stats(system: GlueNailSystem) -> None:
    for key, value in system.counters.snapshot().items():
        if value:
            print(f"  {key} = {value}")


def cmd_check(args) -> int:
    system = _build_system(args)
    compiled = system.compile()
    print(
        f"ok: {compiled.statement_count} statements, "
        f"{len(compiled.procs)} procedures, {len(compiled.rules)} rules"
    )
    return 0


def cmd_run(args) -> int:
    system = _build_system(args)
    system.compile()
    if args.call:
        from repro.lang.parser import parse_term

        inputs = [()] if not args.input else [tuple(parse_term(v) for v in args.input)]
        rows = system.call(args.call, inputs)
        for row in sorted(rows, key=str):
            print(tuple_to_str(row))
    else:
        system.run_script()
    if args.save:
        count = system.save_edb(args.save)
        print(f"saved {count} facts to {args.save}", file=sys.stderr)
    if args.save_facts:
        count = system.save_facts_dir(args.save_facts)
        print(f"saved {count} facts under {args.save_facts}", file=sys.stderr)
    if args.stats:
        _print_stats(system)
    return 0


def cmd_query(args) -> int:
    system = _build_system(args)
    if args.explain_analyze:
        print(system.explain_analyze(args.query, magic=args.magic))
        return 0
    rows = system.query_magic(args.query) if args.magic else system.query(args.query)
    for row in sorted(rows, key=str):
        print(tuple_to_str(row))
    if args.stats:
        _print_stats(system)
    return 0


def cmd_nail2glue(args) -> int:
    from repro.nail.nail2glue import compile_rules_to_glue

    system = _build_system(args)
    compiled = system.compile()
    result = compile_rules_to_glue(compiled.rules)
    print(result.source)
    return 0


def cmd_explain(args) -> int:
    from repro.vm.explain import explain_program

    system = _build_system(args)
    print(explain_program(system.compile()))
    return 0


def cmd_fmt(args) -> int:
    from repro.lang.parser import parse_program
    from repro.lang.pretty import pretty_program

    with open(args.program, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    print(pretty_program(program), end="")
    return 0


def cmd_repl(args) -> int:
    from repro.core.repl import Repl
    from repro.core.system import GlueNailSystem

    if getattr(args, "db", None):
        system = GlueNailSystem.open(args.db)
    else:
        system = GlueNailSystem()
    if args.program:
        system.load_file(args.program)
    if args.edb:
        system.load_edb(args.edb)
    repl = Repl(system=system)
    repl.run(sys.stdin)
    system.close()
    return 0


def cmd_serve(args) -> int:
    from repro.server.gcpolicy import set_gc_policy
    from repro.server.server import GlueNailServer

    set_gc_policy()
    program = None
    if args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            program = handle.read()
    server = GlueNailServer(
        db_dir=args.db,
        program=program,
        host=args.host,
        port=args.port,
        sync=not args.no_sync,
    )
    if args.edb:
        from repro.storage.persist import load_database

        load_database(args.edb, server.db)
    where = "durable store " + args.db if args.db else "in-memory EDB"
    print(f"gluenail: serving {where} on {server.host}:{server.port}",
          file=sys.stderr)
    if server.store is not None and server.store.recovered_txns:
        print(f"gluenail: recovered {server.store.recovered_txns} committed "
              f"transaction(s) from the WAL", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
    return 0


def cmd_connect(args) -> int:
    from repro.server.client import Client, RemoteError

    try:
        client = Client(host=args.host, port=args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    session = client.ping()
    print(f"connected to {args.host}:{args.port} as {session} -- "
          ".help for help, .quit to leave")
    try:
        for line in sys.stdin:
            try:
                out = client.repl(line)
            except RemoteError as exc:
                print(f"error: {exc}")
                continue
            except ConnectionError:
                print("server closed the connection", file=sys.stderr)
                return 1
            sys.stdout.write(out)
            sys.stdout.flush()
            if line.strip() in (".quit", ".exit"):
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        client.close()
    return 0


def cmd_watch(args) -> int:
    from repro.server.client import Client, ConnectionClosed, RemoteError

    if "/" not in args.predicate:
        print("error: predicate must be NAME/ARITY", file=sys.stderr)
        return 1
    name, _, arity_text = args.predicate.rpartition("/")
    try:
        arity = int(arity_text)
    except ValueError:
        print("error: predicate must be NAME/ARITY", file=sys.stderr)
        return 1
    source = None
    if args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            source = handle.read()
    try:
        client = Client(host=args.host, port=args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    try:
        try:
            sub = client.subscribe(name, arity, source=source,
                                   snapshot=args.snapshot)
        except RemoteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"watching {sub.predicate} ({sub.kind}) -- ^C to stop",
              file=sys.stderr)
        if sub.snapshot is not None:
            for row in sub.snapshot:
                print(f"= {sub.predicate} {row}")
        for note in sub:
            if note.op == "resync":
                print(f"! {note.predicate} resync (dropped {note.dropped})")
                continue
            sign = "+" if note.op == "insert" else "-"
            for row in note.rows:
                print(f"{sign} {note.predicate} {row}  [txn {note.txn}]")
            sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    except ConnectionClosed:
        print("server closed the connection", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="Glue-Nail source file")
    parser.add_argument("--edb", help="EDB dump to load before running")
    parser.add_argument(
        "--db",
        metavar="DIR",
        help="durable database directory (WAL + checkpoint, recovered on open)",
    )
    parser.add_argument("--facts-dir", help="directory of .facts TSV files to load")
    parser.add_argument("--strict", action="store_true", help="require declarations")
    parser.add_argument("--stats", action="store_true", help="print cost counters")
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write the execution trace as one JSON event per line",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="gluenail", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and compile only")
    _add_common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run the script or a procedure")
    _add_common(p_run)
    p_run.add_argument("--call", help="procedure to call instead of the script")
    p_run.add_argument(
        "--input", nargs="*", help="input tuple values for --call (strings)"
    )
    p_run.add_argument("--save", help="save the EDB to this dump afterwards")
    p_run.add_argument("--save-facts", help="save the EDB as a .facts directory")
    p_run.set_defaults(fn=cmd_run)

    p_query = sub.add_parser("query", help="answer an ad-hoc query")
    _add_common(p_query)
    p_query.add_argument("query", help="query text, e.g. 'path(1, X)?'")
    p_query.add_argument("--magic", action="store_true", help="demand-driven evaluation")
    p_query.add_argument(
        "--explain-analyze",
        action="store_true",
        help="run the query and print the plan annotated with actual "
             "rows, counter deltas and timings",
    )
    p_query.set_defaults(fn=cmd_query)

    p_n2g = sub.add_parser("nail2glue", help="print generated Glue for the rules")
    _add_common(p_n2g)
    p_n2g.set_defaults(fn=cmd_nail2glue)

    p_explain = sub.add_parser("explain", help="show the compiled plans")
    _add_common(p_explain)
    p_explain.set_defaults(fn=cmd_explain)

    p_fmt = sub.add_parser("fmt", help="pretty-print a program canonically")
    p_fmt.add_argument("program", help="Glue-Nail source file")
    p_fmt.set_defaults(fn=cmd_fmt)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("program", nargs="?", help="program to preload")
    p_repl.add_argument("--edb", help="EDB dump to load first")
    p_repl.add_argument("--db", metavar="DIR",
                        help="durable database directory (recovered on open)")
    p_repl.set_defaults(fn=cmd_repl)

    p_serve = sub.add_parser("serve", help="run the concurrent TCP query server")
    p_serve.add_argument("--db", metavar="DIR",
                         help="durable database directory (recovered on open)")
    p_serve.add_argument("--program", help="Glue-Nail source preloaded per session")
    p_serve.add_argument("--edb", help="EDB dump loaded into the shared database")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7411)
    p_serve.add_argument("--no-sync", action="store_true",
                         help="skip fsync on commit (faster, less durable)")
    p_serve.set_defaults(fn=cmd_serve)

    p_connect = sub.add_parser("connect", help="REPL against a live server")
    p_connect.add_argument("--host", default="127.0.0.1")
    p_connect.add_argument("--port", type=int, default=7411)
    p_connect.add_argument("--timeout", type=float, default=None,
                           help="socket timeout in seconds (default: none)")
    p_connect.set_defaults(fn=cmd_connect)

    p_watch = sub.add_parser(
        "watch", help="stream a predicate's committed deltas from a server"
    )
    p_watch.add_argument("predicate", help="NAME/ARITY, e.g. path/2")
    p_watch.add_argument("--program", help="rules to load server-side first "
                                           "(needed for new IDB predicates)")
    p_watch.add_argument("--snapshot", action="store_true",
                         help="print the current extension before the deltas")
    p_watch.add_argument("--host", default="127.0.0.1")
    p_watch.add_argument("--port", type=int, default=7411)
    p_watch.add_argument("--timeout", type=float, default=None,
                         help="socket timeout in seconds (default: none)")
    p_watch.set_defaults(fn=cmd_watch)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GlueNailError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
