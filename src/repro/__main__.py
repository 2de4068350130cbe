"""``python -m repro`` launches the User Interface REPL.

Subcommands:

* ``python -m repro lint ...`` — the rule-base static analyzer
  (:mod:`repro.analysis.cli`);
* ``python -m repro lint-concurrency ...`` — the lock-discipline checker
  for threaded code (:mod:`repro.analysis.concurrency.cli`);
* ``python -m repro trace ...`` — trace one query and export a Chrome
  trace (:mod:`repro.obs.cli`);
* ``python -m repro serve ...`` — the concurrent query server
  (:mod:`repro.server.cli`);
* ``python -m repro bench-serve ...`` — the server benchmarks;
* ``python -m repro cluster ...`` — the sharded multi-process cluster
  (:mod:`repro.cluster.cli`);
* ``python -m repro bench-cluster ...`` — the cluster scaling benchmark;
  everything else goes to the REPL.
"""

import sys


def main(argv: "list[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments and arguments[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(arguments[1:])
    if arguments and arguments[0] == "lint-concurrency":
        from .analysis.concurrency.cli import main as lint_concurrency_main

        return lint_concurrency_main(arguments[1:])
    if arguments and arguments[0] == "trace":
        from .obs.cli import main as trace_main

        return trace_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        from .server.cli import serve_main

        return serve_main(arguments[1:])
    if arguments and arguments[0] == "bench-serve":
        from .server.cli import bench_serve_main

        return bench_serve_main(arguments[1:])
    if arguments and arguments[0] == "cluster":
        from .cluster.cli import cluster_main

        return cluster_main(arguments[1:])
    if arguments and arguments[0] == "bench-cluster":
        from .cluster.cli import bench_cluster_main

        return bench_cluster_main(arguments[1:])
    from .ui.repl import main as repl_main

    return repl_main(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
