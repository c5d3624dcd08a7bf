"""Regenerate references.json: the observables of every workload variant.

    PYTHONPATH=src python3 perfbench/pin.py [workload ...]

Run only when the solver's answer is meant to change, and say why in the
commit; the output checks compare every benchmark run against these values.
Prints each op's wall time, so the work of the variants can be compared.
"""

import json
import os
import sys

import workloads
from worker import run_op

os.environ["PBH_THREADS"] = "1"


def pin(cli, workload: str) -> dict:
    table = {}
    for variant in range(workloads.VARIANTS):
        refs = table[str(variant)] = {}
        for op in workloads.make_ops(workload, variant):
            rec = run_op(cli, op)
            if rec["rc"] != 0:
                raise SystemExit(f"{op['key']}: exit {rec['rc']}\n{rec['error']}")
            obs = workloads.observables(op["kind"], rec["text"])
            if op["kind"] == "oracle":
                obs = {"p_full": obs["p_full"]}
            refs[op["key"]] = obs
            print(f"{workload} v{variant} {rec['wall_s']:7.2f} s  {op['key']}")
            print(f"    {json.dumps(obs)}", flush=True)
    return table


def main(names) -> int:
    import pairboson.cli as cli
    pinned = {w: pin(cli, w) for w in names or workloads.WORKLOADS}
    try:
        table = workloads.load_references()
    except FileNotFoundError:
        table = {}
    table.update(pinned)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
