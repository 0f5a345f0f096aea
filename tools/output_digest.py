"""Two sha256 over everything the rdnorm CLI prints for a benchmark op list.

Usage, from a checkout's root:

    python3 tools/output_digest.py --workload solve --seed 31

Builds the op list of ``perfbench/workloads.make_ops(workload, seed, 20)``,
20 s being ``perfbench/run.py``'s default run length, and runs each argv
through ``rdnorm.cli.main`` in this process, in list order, by the
benchmark's own ``perfbench/child.run_op`` with a 2 s deadline per run.
Every op's argv holds ``--json``; the human lines come from another code
path, so each op runs a second time, right after the first, with
``--json`` left out, unless its ``--json`` run timed out.  Prints
``<workload> <seed> <ops> <timeouts> <sha256 --json> <sha256 plain>``,
each hash taken over argv, stdout, stderr (its last 2000 characters, as
child.py keeps them), status and exit code of every run of its form, and
the timeouts counted over both forms.  Two checkouts whose lines match
print the same bytes for every op in both forms; ``--root`` runs another
checkout's ``src`` without copying this script there.  When ``rdnorm``
does not come from ``<root>/src/rdnorm`` (a mistyped ``--root`` falls back
to any ``rdnorm`` on the path, such as ``PYTHONPATH=src``'s), it prints
one error line on stderr and exits 1 without a digest.

An op's status depends on the machine's speed as well as on the code: an
op that ends near the 2 s deadline on one run may time out on a loaded
one.  Two lines whose timeout counts differ therefore show a timing
difference, not an output difference; run both checkouts again, one after
the other, on a quiet machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 2.0
RUN_SECONDS = 20  # perfbench/run.py's default --seconds, which sizes the op list


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "solve", "units"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/rdnorm runs the ops")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(HERE, "perfbench"))
    sys.path.insert(0, os.path.join(root, "src"))
    from child import _on_alarm, run_op
    from workloads import make_ops

    import rdnorm.cli

    src = os.path.join(root, "src", "rdnorm")
    if os.path.dirname(os.path.abspath(rdnorm.cli.__file__)) != src:
        print(f"output_digest: rdnorm imported from {rdnorm.cli.__file__}, "
              f"not {src}", file=sys.stderr)
        return 1

    signal.signal(signal.SIGALRM, _on_alarm)
    json_form, plain_form = hashlib.sha256(), hashlib.sha256()
    ops = make_ops(args.workload, args.seed, RUN_SECONDS)
    timeouts = 0

    def run(argv, digest) -> bool:
        """Run argv into digest; True unless it timed out."""
        nonlocal timeouts
        r = run_op(rdnorm.cli, argv, DEADLINE_S)
        timeouts += r["status"] == "timeout"
        record = [argv, r["stdout"], r["stderr"], r["status"], r["code"]]
        digest.update(json.dumps(record).encode() + b"\n")
        return r["status"] != "timeout"

    for op in ops:
        if run(op["argv"], json_form):
            run([arg for arg in op["argv"] if arg != "--json"], plain_form)
    print(args.workload, args.seed, len(ops), timeouts,
          json_form.hexdigest(), plain_form.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
