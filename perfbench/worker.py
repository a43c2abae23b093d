"""One pass of one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED OUT_DIR PASS

MODE is `setup` (import and catalog only), `pass` (untraced) or `trace`.
The first thing timed is `import nlgotz` plus `default_catalog()`, which is
the set-up a command-line user pays on every invocation.  The last line of
standard output is one JSON object with the results of this process.
"""

import json
import os
import resource
import sys
import time

T0 = time.perf_counter()
import nlgotz  # noqa: E402

nlgotz.default_catalog()
SETUP_S = time.perf_counter() - T0


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir, pass_no = argv[0], argv[1], int(argv[2]), argv[3], int(argv[4])
    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.realpath(nlgotz.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"nlgotz imported from {nlgotz.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"setup_s": SETUP_S}
    if mode != "setup":
        import workloads

        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        res = workloads.RUNNERS[workload](seed, tracer)
        out.update(
            wall_s=res.wall_s,
            items=res.items,
            failed=res.failed,
            errors=res.errors,
            item_ms=res.item_ms,
            digest=res.digest,
            info=res.info,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            stamp={
                "nlgotz": nlgotz.__version__,
                "kernel_backend": nlgotz.KERNEL_BACKEND,
                "prime": nlgotz.graded.DEFAULT_PRIME,
                "numpy": workloads.np.__version__,
            },
        )
        if tracer is not None:
            out.update(
                layers=tracer.summary(),
                counters=tracer.counters,
                shapes=tracer.shapes(),
                absent=tracer.absent,
                spans=tracer.span_count,
            )
            tracer.write(os.path.join(out_dir, f"spans-{workload}-pass{pass_no}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
