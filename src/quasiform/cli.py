"""Command-line interface: run a script and report results as text or JSON.

Exit codes: 0 success; 1 a checked expectation failed (a corpus mismatch or
a certificate that does not re-verify); 2 input error (bad script, bad
flags, unreadable file); 3 resource limit (tower depth or timeout).
"""

import argparse
import json
import signal
import sys
import time
from typing import Dict, List, Optional

from . import __version__
from .birational import construct_ruling, decide_stably_equivalent, \
    is_regular_quadric
from .dsl import Script, parse
from .errors import (
    NotRuled,
    QuasiformError,
    ResourceLimit,
    TowerDepthExceeded,
)
from .corpus import run_corpus
from .fieldtower import DEFAULT_DEPTH_LIMIT
from .forms import decide_similar
from .splitting import splitting_pattern

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# signal.setitimer rejects NaN and overflows near 9.2e9 s (its nanosecond
# count); a budget of about 31 years bounds any run well inside that
MAX_TIMEOUT_SECONDS = 1e9

Result = Dict[str, object]


def _splitting_data(pattern) -> Dict[str, object]:
    dims = list(pattern.dims)
    return {
        "splitting_pattern": dims,
        "witt_increments": [a - b for a, b in zip(dims, dims[1:])],
    }


def _run_invariants(form) -> Result:
    pattern = splitting_pattern(form)
    split = _splitting_data(pattern)
    # the pattern starts at the dimension of the anisotropic part
    anisotropic_dim = split["splitting_pattern"][0]
    anisotropic = anisotropic_dim == form.dim
    out: Result = {
        "dim": form.dim,
        "total_index": form.dim - anisotropic_dim,
        "anisotropic_dim": anisotropic_dim,
        "anisotropic": anisotropic,
    }
    out.update(split)
    if anisotropic and form.dim >= 2:
        # an anisotropic form is its own anisotropic part, so the first
        # step of its splitting pattern is its first Witt index
        i1 = out["witt_increments"][0]
        out["first_witt_index"] = i1
        out["essential_dimension"] = (form.dim - 2) - (i1 - 1)
    else:
        out["first_witt_index"] = None
        out["essential_dimension"] = None
    # an anisotropic form's norm degree is that of its anisotropic part,
    # which the splitting pattern computed
    out["norm_degree"] = pattern.norm_degree if anisotropic else None
    return out


def _run_compare(p, q) -> Result:
    # forms of different dimensions are neither isometric nor similar;
    # decide_similar returns the factor 1 exactly for isometric forms: it
    # tests isometry first, and any other factor of 1 would fail its own
    # isometry check
    factor = decide_similar(p, q) if p.dim == q.dim else None
    out: Result = {"isometric": factor is not None and factor.is_one}
    out["similar"] = factor is not None
    out["similarity_factor"] = None if factor is None else str(factor)
    # similar forms of dim >= 2 have isomorphic quadrics, so each is
    # isotropic over the other's function field; decide_similar has proved
    # both anisotropic, and a dim-1 pair still raises below
    stably = ((factor is not None and p.dim >= 2)
              or decide_stably_equivalent(p, q))
    out["stably_equivalent"] = stably
    # decide_birational is exactly this, and would decide stable
    # equivalence a second time
    out["birational"] = p.dim == q.dim and stably
    return out


def _run_ruling(form, verify: bool) -> Result:
    try:
        dec = construct_ruling(form)
    except NotRuled as exc:
        return {"ruled": False, "reason": str(exc)}
    out: Result = {
        "ruled": True,
        "witt_index": dec.r,
        "subquadric": [str(c) for c in dec.Y.coeffs],
        "isotropic_basis": [[str(e) for e in vec] for vec in dec.s_basis],
        "ruling_map": [str(c) for c in dec.phi],
        "projection": [str(c) for c in dec.psi.pi],
        "fibers": [str(f) for f in dec.psi.fibers],
        # the certificate recombines to the generic point itself
        "scale": "1",
    }
    # checked on every run; the flag also reports a passing verdict
    verified = dec.verify()
    if verify or not verified:
        out["certificate_verified"] = verified
    return out


def _run_regular(form) -> Result:
    report = is_regular_quadric(form)
    return {
        "regular": report.regular,
        "coefficient_products_independent":
            report.coefficient_products_independent,
        "differentials_independent": report.differentials_independent,
        "generic_splitting": report.generic_splitting,
    }


def run(script: Script, verify_certificates: bool = False,
        timings: Optional[List[float]] = None) -> Dict[str, object]:
    """Execute the script's commands in order and build the report.

    The report is deterministic for a fixed script and package version;
    wall-clock seconds per command go into `timings` when a list is passed,
    never into the report itself.
    """
    results: List[Result] = []
    for cmd in script.commands:
        t0 = time.monotonic()
        entry: Result = {"command": cmd.name}
        if cmd.args:
            entry["forms"] = list(cmd.args)
        if cmd.name == "invariants":
            entry.update(_run_invariants(script.form_by_name(cmd.args[0]).form))
        elif cmd.name == "compare":
            entry.update(_run_compare(script.form_by_name(cmd.args[0]).form,
                                      script.form_by_name(cmd.args[1]).form))
        elif cmd.name == "ruling":
            entry.update(_run_ruling(script.form_by_name(cmd.args[0]).form,
                                     verify_certificates))
        elif cmd.name == "regular":
            entry.update(_run_regular(script.form_by_name(cmd.args[0]).form))
        elif cmd.name == "splitting":
            entry.update(_splitting_data(
                splitting_pattern(script.form_by_name(cmd.args[0]).form)))
        elif cmd.name == "corpus":
            cases = run_corpus()
            entry["cases"] = cases
            entry["passed"] = sum(1 for c in cases if c["ok"])
            entry["failed"] = sum(1 for c in cases if not c["ok"])
        results.append(entry)
        if timings is not None:
            timings.append(time.monotonic() - t0)
    return {
        "version": __version__,
        "field": list(script.field.base_vars),
        "forms": {fd.name: [str(c) for c in fd.form.coeffs]
                  for fd in script.forms},
        "results": results,
    }


def _assertions_failed(report: Dict[str, object]) -> bool:
    for entry in report["results"]:
        if entry.get("failed"):
            return True
        if entry.get("certificate_verified") is False:
            return True
    return False


def _human_lines(report: Dict[str, object],
                 seconds: List[float]) -> List[str]:
    lines = []
    for entry, dt in zip(report["results"], seconds):
        name = entry["command"]
        args = " ".join(entry.get("forms", ()))
        head = f"{name} {args}".strip()
        if name == "invariants":
            bits = [f"dim {entry['dim']}",
                    "anisotropic" if entry["anisotropic"]
                    else f"total index {entry['total_index']}",
                    "pattern (" + ", ".join(
                        str(d) for d in entry["splitting_pattern"]) + ")"]
            if entry["first_witt_index"] is not None:
                bits.append(f"i1 = {entry['first_witt_index']}")
                bits.append(f"dim_es = {entry['essential_dimension']}")
            if entry["norm_degree"] is not None:
                bits.append(f"norm degree {entry['norm_degree']}")
            body = ", ".join(bits)
        elif name == "compare":
            body = ", ".join(
                f"{k.replace('_', ' ')} {'yes' if entry[k] else 'no'}"
                for k in ("isometric", "similar", "stably_equivalent",
                          "birational"))
        elif name == "ruling":
            if entry["ruled"]:
                body = (f"ruled, witt index {entry['witt_index']}, "
                        f"subquadric <"
                        + ", ".join(entry["subquadric"]) + ">")
                if "certificate_verified" in entry:
                    body += (", certificate verified"
                             if entry["certificate_verified"]
                             else ", CERTIFICATE FAILED")
            else:
                body = f"not ruled ({entry['reason']})"
        elif name == "regular":
            body = "regular" if entry["regular"] else "not regular"
        elif name == "splitting":
            body = "pattern (" + ", ".join(
                str(d) for d in entry["splitting_pattern"]) + ")"
        else:  # corpus
            body = f"{entry['passed']}/{len(entry['cases'])} cases pass"
            for case in entry["cases"]:
                if not case["ok"]:
                    body += f"; FAILED {case['name']}"
        lines.append(f"{head}: {body}  ({dt:.2f}s)")
    return lines


def _alarm_handler(signum, frame):
    raise ResourceLimit("timeout exceeded")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiform",
        description="Invariants and birational decision procedures for "
                    "quasilinear quadratic forms in characteristic 2.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runp = sub.add_parser("run", help="execute a script file")
    runp.add_argument("script", help="path to the script")
    runp.add_argument("--json", nargs="?", const="-", default=None,
                      metavar="OUT",
                      help="write the JSON report to OUT (stdout if no "
                           "path is given)")
    runp.add_argument("--max-tower-depth", type=int,
                      default=DEFAULT_DEPTH_LIMIT, metavar="N",
                      help="limit on inseparable tower depth "
                           f"(default {DEFAULT_DEPTH_LIMIT})")
    runp.add_argument("--verify-certificates", action="store_true",
                      help="report each ruling's certificate verdict also "
                           "when it passes (it is checked on every run)")
    runp.add_argument("--timeout-seconds", type=float, default=None,
                      metavar="T",
                      help="abort after T seconds of wall time "
                           f"(0 < T <= {MAX_TIMEOUT_SECONDS:g})")
    args = parser.parse_args(argv)

    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # written so that NaN, which compares false, fails it too
    if args.timeout_seconds is not None and not (
            0 < args.timeout_seconds <= MAX_TIMEOUT_SECONDS):
        print("error: --timeout-seconds must be positive and at most "
              f"{MAX_TIMEOUT_SECONDS:g}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_tower_depth < 1:
        print("error: --max-tower-depth must be at least 1", file=sys.stderr)
        return EXIT_INPUT

    # opened (and truncated, as a shell redirection would) before the work,
    # so an unwritable target fails at once, not after the whole script
    out = None
    if args.json not in (None, "-"):
        try:
            out = open(args.json, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return _execute(args, text, out)
    finally:
        if out is not None:
            out.close()


def _execute(args: argparse.Namespace, text: str, out) -> int:
    """Parse and run the script under the flags' limits, then write the
    report: JSON to `out` or stdout as --json asks, and the human lines."""
    old_handler = None
    if args.timeout_seconds is not None:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    seconds: List[float] = []
    try:
        # armed inside the handler scope so a tiny budget cannot fire
        # before the except clause below is able to catch it
        if args.timeout_seconds is not None:
            signal.setitimer(signal.ITIMER_REAL, args.timeout_seconds)
        script = parse(text, depth_limit=args.max_tower_depth)
        report = run(script, args.verify_certificates, timings=seconds)
    except (ResourceLimit, TowerDepthExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except QuasiformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if args.timeout_seconds is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old_handler)

    rendered = json.dumps(report, indent=2)
    if args.json == "-":
        print(rendered)
    else:
        if out is not None:
            try:
                out.write(rendered + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
        for line in _human_lines(report, seconds):
            print(line)

    return EXIT_ASSERTION if _assertions_failed(report) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
