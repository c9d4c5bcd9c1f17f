"""Record goldens.json, the expected output of every benchmark operation.

    python3 perfbench/record_goldens.py

The benchmark counts every operation whose output differs from the
recorded one as failed, so re-record only when a change to the package
is meant to change its outputs.
"""
import json
import os
import sys

from workloads import WORKLOADS, golden_key, package_modules, sha256

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import lspacecert.cli  # noqa: F401  (registers the modules package_modules reads)

    m = package_modules()
    run_certify = WORKLOADS["certify-genus"].run
    certified = ("certify-genus", "certify-long", "cli-grid")
    keys = {k for name in certified for k in WORKLOADS[name].keys}
    certificates = {golden_key(*k): sha256(run_certify(m, k)) for k in sorted(keys)}
    validate = WORKLOADS["validate-long"]
    validations = {}
    for g, n in validate.keys:
        report = validate.run(m, (g, n))
        if report["direct_value"] != 16 * n * n + 1:
            raise SystemExit(f"iota(B[{g},{n}], psi(B[{g},{n}])) = {report['direct_value']}, "
                             f"expected 16n^2+1 = {16 * n * n + 1}")
        validations[golden_key(g, n)] = report
    with open(os.path.join(HERE, "goldens.json"), "w") as f:
        json.dump({"certificates": certificates, "validations": validations}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
