"""Command-line front end: geometry summaries, codeword construction and
verification, dual-weight scans, and alist/JSON export.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 refused
(a scan too large, a resource cap, or out of memory), 4 I/O error.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import asdict, dataclass, field

from .gf import FieldError
from .projspace import GeometryError, ResourceError
from .polarspace import (
    bound_min_weight_dual,
    canonical_family,
    get_space,
)
from .gfcode import (
    JSON_SCHEMA,
    CodeError,
    ScanRefused,
    build_incidence,
    codeword_payload,
    export_alist,
    export_json,
    geometry_payload,
    scan_dual_weights,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_IO = 4

@dataclass
class RunConfig:
    """Everything needed to reproduce a run byte-for-byte."""
    subcommand: str
    family: str | None = None
    n: int | None = None
    q: int | None = None
    k: int | None = None
    construction: str | None = None
    params: dict = field(default_factory=dict)
    out: str | None = None
    window: tuple | None = None
    partial: bool = False

    def payload_fields(self) -> dict:
        """The fields without `out`: payload bytes must not depend on the
        path they are written to."""
        fields = asdict(self)
        fields.pop("out")
        return fields


def _space(family: str, n: int, q: int):
    # --q is always the GQ-style parameter: hermitian spaces live over q^2
    order = q * q if canonical_family(family) == "hermitian" else q
    return get_space(family, n, order)


_KSPACE_NAMES = {0: "points", 1: "lines", 2: "planes", 3: "solids"}


def cmd_geometry(cfg: RunConfig) -> int:
    P = _space(cfg.family, cfg.n, cfg.q)
    k = cfg.k if cfg.k is not None else 1
    if cfg.out or cfg.k is not None:
        P.kspace_count(k)  # a k out of range is refused before any output
    # one enumeration up to the generators checks every level's count
    P.singular_kspaces_with_supports(P.gen_dim)
    parts = [f"points: {len(P.points)}"]
    for m in range(1, P.gen_dim + 1):
        name = _KSPACE_NAMES.get(m, f"{m}-spaces")
        parts.append(f"{name}: {P.kspace_count(m)}")
    print(", ".join(parts))
    print(f"generator dimension: {P.gen_dim}")
    if cfg.out:
        sha = export_json(geometry_payload(P, k), cfg.out)
        print(f"wrote {cfg.out} sha256={sha}")
    return EXIT_OK


def cmd_construct(cfg: RunConfig) -> int:
    from .constructions import CONSTRUCTIONS
    fn = CONSTRUCTIONS[cfg.construction]
    kwargs = dict(cfg.params)
    result = fn(**kwargs)
    if result is None:
        print("search outcome: no configuration found")
        return EXIT_VERIFY
    ok_weight, ok_dual, witness = result.check()
    bound = bound_min_weight_dual(result.space.family, result.space.rank_param,
                                  result.k, result.space.q)
    print(f"construction: {cfg.construction}")
    print(f"configuration: {result.witness}")
    print(f"weight: {result.codeword.weight} (predicted {result.predicted_weight})")
    print(f"lower bound for this code: {bound}")
    verdict = ok_dual and ok_weight and result.codeword.weight >= bound
    print(f"verdict: {'PASS' if verdict else 'FAIL'}")
    if not ok_dual:
        print(f"failing incidence row: {witness}")
    if cfg.out:
        meta = {"construction": cfg.construction, "params": cfg.params,
                "predicted_weight": result.predicted_weight,
                "run_config": cfg.payload_fields()}
        sha = export_json(codeword_payload(result.codeword, meta), cfg.out)
        print(f"wrote {cfg.out} sha256={sha}")
    return EXIT_OK if verdict else EXIT_VERIFY


def cmd_scan(cfg: RunConfig) -> int:
    P = _space(cfg.family, cfg.n, cfg.q)
    A = build_incidence(P, cfg.k)
    report = scan_dual_weights(A, allow_partial=cfg.partial)
    print(f"mode: {report['mode']}")
    print(f"rank: {report['rank']}, nullity: {report['nullity']}")
    weights = report["weights"]
    # the extremes are those of the whole distribution; the window selects
    # only the weight lines and the --out weights
    nonzero = sorted(w for w in weights if w > 0)
    if cfg.window:
        lo, hi = cfg.window
        weights = {w: m for w, m in weights.items() if lo <= w <= hi}
    # a PARTIAL count covers only the words that were enumerated
    label = "weight" if report["mode"] == "FULL" else "enumerated weight"
    for w in sorted(weights):
        print(f"{label} {w}: {weights[w]}")
    if nonzero and report["mode"] == "FULL":
        print(f"min nonzero weight: {nonzero[0]}")
        print(f"max weight: {nonzero[-1]}")
    elif nonzero:  # only some words were enumerated
        print(f"min nonzero weight <= {nonzero[0]} (upper bound on d)")
        print(f"max weight >= {nonzero[-1]} (lower bound)")
    if cfg.out:
        payload = {"schema": JSON_SCHEMA, "kind": "scan",
                   "run_config": cfg.payload_fields(),
                   "mode": report["mode"], "rank": report["rank"],
                   "nullity": report["nullity"],
                   "weights": {str(w): c for w, c in sorted(weights.items())}}
        sha = export_json(payload, cfg.out)
        print(f"wrote {cfg.out} sha256={sha}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    P = _space(cfg.family, cfg.n, cfg.q)
    A = build_incidence(P, cfg.k)
    if cfg.params["target"] == "alist":
        sha = export_alist(A, cfg.out)
    else:
        sha = export_json(geometry_payload(P, cfg.k), cfg.out)
    print(f"wrote {cfg.out} sha256={sha}")
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--out", default=None, help="machine-readable output path")


class _ConstructionNames:
    """The choices of `construct name`, the registry's keys in sorted
    order; the registry is imported when they are first read."""

    def __iter__(self):
        from .constructions import CONSTRUCTIONS
        return iter(sorted(CONSTRUCTIONS))


def build_parser() -> argparse.ArgumentParser:
    import argparse
    ap = argparse.ArgumentParser(
        prog="polarlab",
        description="codes of points and k-spaces of classical polar spaces")
    subs = ap.add_subparsers(dest="subcommand", required=True)

    g = subs.add_parser("geometry", help="summarize a polar space")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--k", type=int, default=None)
    _add_common(g)

    c = subs.add_parser("construct", help="build and verify a codeword")
    # set after add_argument, which formats the choices it is given and so
    # would import the registry for every subcommand
    c.add_argument("name").choices = _ConstructionNames()
    c.add_argument("--family", default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--i", type=int, default=None, help="switch count")
    c.add_argument("--alpha", type=int, default=None, help="nonzero symbol")
    c.add_argument("--beta", type=int, default=None, help="nonzero symbol")
    c.add_argument("--variant", default=None)
    c.add_argument("--flavor", default=None,
                   help="removed-set flavor for complement-cone")
    c.add_argument("--common-lines", type=int, default=None, dest="common_lines")
    c.add_argument("--orientation", type=int, default=None)
    _add_common(c)

    s = subs.add_parser("scan", help="scan dual codeword weights")
    s.add_argument("--family", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--window", type=int, nargs=2, default=None,
                   metavar=("LO", "HI"))
    s.add_argument("--partial", action="store_true",
                   help="allow a partial low-support scan when the full "
                        "scan is infeasible")
    _add_common(s)

    e = subs.add_parser("export", help="write the incidence matrix")
    e.add_argument("target", choices=("alist", "json"))
    e.add_argument("--family", required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--k", type=int, default=1)
    _add_common(e)
    return ap


_VARIANT_ALIASES = {
    "curve": "curve_pair", "cone": "cone_pair",
    "affine-plus-pair": "affine_plus_pair",
    "ovoid-plus-pair": "ovoid_plus_pair",
}

def _construct_config(ns) -> RunConfig:
    """The keyword arguments of the construction's signature that the
    parser defines; one without a default must be given (--q always is),
    and a flag outside the signature must not be."""
    from .constructions import CONSTRUCTIONS
    name = ns.name
    signature = inspect.signature(CONSTRUCTIONS[name]).parameters
    taken = {"subcommand", "name", "out", *signature}
    for key, val in vars(ns).items():
        if val is not None and key not in taken:
            flag = "--" + key.replace("_", "-")
            raise SystemExit(f"polarlab construct {name}: takes no {flag}")
    params = {}
    for key, par in signature.items():
        if key not in vars(ns):
            continue
        val = getattr(ns, key)
        if val is None:
            if par.default is par.empty:
                flag = "--" + key.replace("_", "-")
                raise SystemExit(f"polarlab construct {name}: {flag} is required")
            continue
        if key == "variant":
            val = _VARIANT_ALIASES.get(val, val)
        params[key] = val
    return RunConfig(subcommand="construct", family=ns.family, n=ns.n,
                     q=ns.q, k=ns.k, construction=name, params=params,
                     out=ns.out)


def parse_config(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    if ns.subcommand == "construct":
        return _construct_config(ns)
    cfg = RunConfig(subcommand=ns.subcommand, family=ns.family, n=ns.n,
                    q=ns.q, out=ns.out)
    cfg.k = getattr(ns, "k", None)
    if ns.subcommand == "scan":
        if ns.window and ns.window[0] > ns.window[1]:
            raise SystemExit("polarlab scan: --window LO HI needs LO <= HI")
        cfg.window = tuple(ns.window) if ns.window else None
        cfg.partial = ns.partial
    if ns.subcommand == "export":
        cfg.params = {"target": ns.target}
    return cfg


_DISPATCH = {
    "geometry": cmd_geometry,
    "construct": cmd_construct,
    "scan": cmd_scan,
    "export": cmd_export,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; normalize messages we raise
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_USAGE
        return EXIT_USAGE if e.code else EXIT_OK
    if cfg.subcommand == "export" and not cfg.out:
        print("export requires --out", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[cfg.subcommand](cfg)
    except (ScanRefused, ResourceError, MemoryError) as e:
        print(f"refused: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_REFUSED
    except (GeometryError, FieldError, CodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
