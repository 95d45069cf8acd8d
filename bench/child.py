"""One benchmark process: import stroblim, load the scenario, run one CLI command.

Started fresh by run.py for every sample, so set-up time and peak RSS belong
to this command alone.  Prints one JSON line with its measurements, among
them the CLOCK_MONOTONIC windows of set-up and of the command, which run.py
matches against its host-speed probe.

    python3 bench/child.py --root DIR --t0 MONOTONIC --scenario FILE \
        [--setup-only] [--trace-file FILE] -- <stroblim CLI arguments>
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading just before this process was started")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import stroblim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stroblim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.load_scenario(args.scenario)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.t0, "setup_window": [args.t0, setup_end]}
    if not args.setup_only:
        tracer = None
        if args.trace_file:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        t0 = time.monotonic()
        with contextlib.redirect_stdout(out):
            code = cli.main(args.cli_args)
        t1 = time.monotonic()
        result["wall_s"] = t1 - t0
        result["wall_window"] = [t0, t1]
        result["exit_code"] = code
        result["stdout"] = out.getvalue()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["layer_self_s"] = tracer.layer_self_times()
            tracer.write(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
