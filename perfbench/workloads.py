"""The benchmark workloads: their operations and how each output is checked.

Each workload is a fixed list of operation keys.  Running an operation
calls the package through the module namespace handed in, so a tracer
that rebinds module attributes sees every call.  Checking compares the
operation's output with the goldens recorded in ``goldens.json``; it runs
outside the timed region.
"""
import hashlib
import io
import sys
import types
from dataclasses import dataclass

# cross_validate(2, 40) multiplies 321- and 483-letter words (155,043); the
# package default of 50,000 would refuse every n above about 18.
VALIDATE_BUDGET = 200_000


def package_modules():
    """The imported lspacecert modules the operations call into."""
    return types.SimpleNamespace(
        certify=sys.modules["lspacecert.certify"],
        cli=sys.modules["lspacecert.cli"],
        mcg=sys.modules["lspacecert.mcg"],
    )


def golden_key(g, n):
    return f"{g},{n}"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run_certify(m, key):
    g, n = key
    return m.cli.emit_certificate(m.certify.certify(g, n), "json")


def _check_certify(goldens, key, text):
    return sha256(text) == goldens["certificates"][golden_key(*key)]


def _run_validate(m, key):
    g, n = key
    report = m.certify.cross_validate(g, n, VALIDATE_BUDGET)
    return {"direct_value": report.direct_value, "slack": report.slack}


def _check_validate(goldens, key, report):
    return report == goldens["validations"][golden_key(*key)]


def _run_cli(m, key):
    g, n = key
    buf = io.StringIO()
    code = m.cli.main(["certify", "-g", str(g), "-n", str(n), "--json"], out=buf)
    text = buf.getvalue()
    cert = m.cli.replay_json(text)
    replayed = m.cli.emit_certificate(cert, "json")
    verified = m.certify.verify_certificate(cert)
    return code, text, replayed, verified


def _check_cli(goldens, key, out):
    code, text, replayed, verified = out
    return (
        code == 0
        and _check_certify(goldens, key, text)
        and replayed == text
        and verified is True
    )


@dataclass(frozen=True)
class Workload:
    name: str
    keys: tuple
    tiny: tuple
    run: object
    check: object

    def keys_for(self, tiny):
        return self.tiny if tiny else self.keys


# Why each workload exists, and which layer it loads, is in README.md.
_GENUS = tuple((g, 2) for g in range(4, 21, 2))
_LONG = tuple((g, n) for g in (2, 3) for n in range(25, 401, 25))
_VALIDATE = tuple((2, n) for n in range(4, 41, 4))
_GRID = tuple((g, n) for g in range(2, 9) for n in range(0, 15))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-genus", _GENUS, _GENUS[:2], _run_certify, _check_certify),
        Workload("certify-long", _LONG, (_LONG[0], _LONG[16]), _run_certify, _check_certify),
        Workload("validate-long", _VALIDATE, _VALIDATE[:2], _run_validate, _check_validate),
        Workload("cli-grid", _GRID, _GRID[:3] + _GRID[15:18], _run_cli, _check_cli),
    )
}
