"""Command-line interface.

Every command prints a single JSON report on stdout and exits with 0 for
a true verdict or success, 1 for a false verdict, and 2 for any error.
The search budget can be overridden with DBLNERVE_BUDGET, a positive
integer; any other value is a usage error.

The commands reach the package's modules through their module objects,
which run on first use (see ``dblnerve``), so a command runs only the
modules it calls: ``validate`` runs ``io`` and the modules of the three
kinds, ``fibrancy`` adds ``nerve`` and ``whi``, and only ``segal`` runs
``pseudohom``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dblcat, errors, io, nerve, presentation, shapes, twocat, whi


def _emit(report: dict, verdict: bool | None = None) -> int:
    sys.stdout.write(io.dump(report))
    if verdict is None:
        return 0
    return 0 if verdict else 1


def _load_functor(args, need):
    """The functor of a map file between two files of the kind ``need`` checks."""
    src, tgt = need(io.load_path(args.src)), need(io.load_path(args.tgt))
    double = isinstance(src, dblcat.FiniteDoubleCategory)
    keys = ("objects", "hmor", "vmor", "squares") if double else ("objects", "one_cells", "two_cells")
    with open(args.mapfile, "r", encoding="utf-8") as handle:
        try:
            maps = json.load(handle)
        except json.JSONDecodeError as err:
            raise errors.SchemaError(f"{args.mapfile}: not valid JSON: {err}") from err
    sections = isinstance(maps, dict) and set(maps) <= set(keys)
    parts = [maps.get(key, {}) if sections else None for key in keys]
    if not all(isinstance(part, dict) and all(isinstance(v, str) for v in part.values())
               for part in parts):
        raise errors.SchemaError(
            f"{args.mapfile}: a map file maps names to names under {list(keys)}")
    validate = dblcat.validate_double_functor if double else twocat.validate_two_functor
    return validate(src, tgt, *parts)


def cmd_validate(args):
    obj = io.load_path(args.file)
    return _emit({"kind": type(obj).__name__, "valid": True})


def cmd_whi_check(args):
    dbl = _need_double(io.load_path(args.file))
    if args.square:
        witness = whi.is_whi_square(dbl, _need_square(dbl, args.square))
        report = {"square": args.square, "whi": witness is not None}
        if witness:
            report["weak_inverse"] = witness.beta
            report["top_data"] = list(witness.top_data.as_tuple())
            report["bottom_data"] = list(witness.bottom_data.as_tuple())
        return _emit(report, witness is not None)
    whis = sorted(whi.whi_squares(dbl))
    return _emit({"whi_squares": whis, "count": len(whis)})


def cmd_weak_inverse(args):
    dbl = _need_double(io.load_path(args.file))
    square = _need_square(dbl, args.square)
    try:
        data = json.loads(args.data)
    except json.JSONDecodeError as err:
        raise errors.UsageError(f"--data is not valid JSON: {err}") from err
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("top", "bottom")):
        raise errors.UsageError("--data needs 'top' and 'bottom' quadruples")
    top = _pick_data(dbl, data["top"])
    bottom = _pick_data(dbl, data["bottom"])
    beta = whi.weak_inverse(dbl, square, top, bottom)
    return _emit({"square": square, "weak_inverse": beta})


def _pick_data(dbl, quad):
    for d in whi.horizontal_equivalences(dbl):
        if list(d.as_tuple()) == list(quad):
            if not d.adjoint:
                raise errors.UsageError(f"data {quad} is not adjoint")
            return d
    raise errors.UsageError(f"{quad} is not a horizontal equivalence of this double category")


def cmd_invariance(args):
    """``whi-invariant`` and ``fibrancy``: one check, its verdict reported
    under the command's ``key``."""
    dbl = _need_double(io.load_path(args.file))
    verdict, witness = nerve.fibrancy_vertical_check(dbl)
    report = {args.key: verdict}
    if witness:
        report["counterexample"] = list(witness)
    return _emit(report, verdict)


def cmd_functor_check(args):
    """``tfib``, ``bieq`` and ``dbl-bieq``: the command's ``check`` on the
    functor of a map file, its verdict reported under the command's ``key``."""
    verdict, reason = args.check(_load_functor(args, args.need))
    report = {args.key: verdict}
    if reason:
        report["failure"] = [str(part) for part in reason]
    return _emit(report, verdict)


def cmd_rlp(args):
    need, generating, prefix = LIFTING_SETS[args.set]
    functor = _load_functor(args, need)
    morphisms = {k: v for k, v in generating().items() if k.startswith(prefix)}
    results = {name: presentation.has_rlp(functor, morphism)[0]
               for name, morphism in sorted(morphisms.items())}
    verdict = all(results.values())
    return _emit({"set": args.set, "rlp": results, "all": verdict}, verdict)


def cmd_nerve(args):
    dbl = _need_double(io.load_path(args.file))
    level = nerve.dbl_nerve_level(dbl, args.m, args.k, args.n)
    report = {
        "level": [args.m, args.k, args.n],
        "count": level.count(),
        "provenance": level.provenance,
    }
    if args.list:
        report["elements"] = [dict(zip(level.keys, row)) for row in level.elements]
    verdict = None
    if args.oracle or args.compare:
        oracle = nerve.dbl_nerve_oracle(dbl, args.m, args.k, args.n)
        report["oracle_count"] = oracle.count()
        if args.compare:
            agree = oracle.elements == level.elements
            report["oracle_agrees"] = agree
            verdict = agree
    return _emit(report, verdict)


def cmd_nerve2(args):
    cat2 = _need_two(io.load_path(args.file))
    level = nerve.two_nerve_level(cat2, args.variant, args.m, args.k, args.n)
    report = {
        "level": [args.m, args.k, args.n],
        "variant": args.variant,
        "count": level.count(),
    }
    if args.list:
        report["elements"] = [dict(zip(level.keys, row)) for row in level.elements]
    verdict = None
    if args.compare_retract:
        cm = nerve.comparison_maps(cat2, args.m, args.k, args.n)
        report["retract"] = cm["retract"]
        report["comparison_injective"] = cm["injective"]
        verdict = cm["retract"]
    return _emit(report, verdict)


def cmd_segal(args):
    dbl = _need_double(io.load_path(args.file))
    verdict, reason = nerve.segal_tfib_check(dbl, args.k)
    report = {"k": args.k, "segal_restriction_trivial_fibration": verdict}
    if reason:
        report["failure"] = [str(part) for part in reason]
    return _emit(report, verdict)


def cmd_shapes_emit(args):
    family = args.family
    if family in ("E_adj", "C", "C_inv", "C2", "dC"):
        return _emit(io.serialize(shapes.shape_2cat(family)))
    if family == "v-inverted":
        return _emit(io.serialize(shapes.v_oriental_inv(args.n)))
    variant = args.variant or "full"
    return _emit(io.serialize(shapes.oriental_variant(family, args.n, variant, args.t)))


def _need_double(obj):
    if not isinstance(obj, dblcat.FiniteDoubleCategory):
        raise errors.UsageError("this command needs a double-category file")
    return obj


def _need_two(obj):
    if not isinstance(obj, twocat.FiniteTwoCategory):
        raise errors.UsageError("this command needs a two-category file")
    return obj


def _need_square(dbl, name):
    if name not in set(dbl.squares):
        raise errors.UsageError(f"no square named {name!r}")
    return name


# each lifting set: the kind of file it needs, a family and the prefix of its members' names;
# a family is looked up in shapes when the command runs, so building the parser runs no module
LIFTING_SETS = {"I": (_need_double, lambda: shapes.generating_cofibrations_dbl(), ""),
                "I2": (_need_two, lambda: shapes.generating_cofibrations_two(), "i"),
                "J2": (_need_two, lambda: shapes.generating_cofibrations_two(), "j")}


def _count(text):
    """A non-negative integer argument."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dblnerve",
        description="Finite 2-category and double-category verification engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an interchange file")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("whi-check", help="weak horizontal invertibility of squares")
    p.add_argument("file")
    p.add_argument("--square")
    p.set_defaults(run=cmd_whi_check)

    p = sub.add_parser("weak-inverse", help="unique weak inverse against adjoint data")
    p.add_argument("file")
    p.add_argument("--square", required=True)
    p.add_argument("--data", required=True, help='JSON {"top": [f,g,eta,eps], "bottom": [...]}')
    p.set_defaults(run=cmd_weak_inverse)

    p = sub.add_parser("whi-invariant", help="weak horizontal invariance")
    p.add_argument("file")
    p.set_defaults(run=cmd_invariance, key="weakly_horizontally_invariant")

    # each check is looked up in its module when the command runs
    for name, need, check, key in (
            ("tfib", _need_double, lambda f: whi.is_trivial_fibration(f), "trivial_fibration"),
            ("bieq", _need_two, lambda f: twocat.is_biequivalence(f), "biequivalence"),
            ("dbl-bieq", _need_double, lambda f: whi.is_double_biequivalence(f),
             "double_biequivalence")):
        p = sub.add_parser(name)
        p.add_argument("src")
        p.add_argument("tgt")
        p.add_argument("mapfile")
        p.set_defaults(run=cmd_functor_check, need=need, check=check, key=key)

    p = sub.add_parser("rlp", help="right lifting property against a generating set")
    p.add_argument("src")
    p.add_argument("tgt")
    p.add_argument("mapfile")
    p.add_argument("--set", default="I", choices=sorted(LIFTING_SETS))
    p.set_defaults(run=cmd_rlp)

    p = sub.add_parser("nerve", help="double-categorical nerve level")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--compare", action="store_true")
    p.set_defaults(run=cmd_nerve)

    p = sub.add_parser("nerve2", help="2-categorical nerve level")
    p.add_argument("file")
    p.add_argument("--variant", required=True, choices=["h", "hsim"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--compare-retract", action="store_true")
    p.set_defaults(run=cmd_nerve2)

    p = sub.add_parser("fibrancy", help="nerve fibrancy via weak horizontal invariance")
    p.add_argument("file")
    p.set_defaults(run=cmd_invariance, key="fibrant_nerve")

    p = sub.add_parser("segal", help="Segal restriction trivial-fibration check")
    p.add_argument("file")
    p.add_argument("--k", type=_count, required=True)
    p.set_defaults(run=cmd_segal)

    p = sub.add_parser("shapes", help="shape family utilities")
    shapes_sub = p.add_subparsers(dest="shapes_command", required=True)
    q = shapes_sub.add_parser("emit", help="serialize a shape")
    q.add_argument("--family", required=True,
                   help="plain | inverted | adjoint | v-inverted | E_adj | C | C_inv | C2 | dC")
    q.add_argument("--n", type=_count, default=0)
    q.add_argument("--variant", choices=["full", "boundary", "horn"])
    q.add_argument("--t", type=int)
    q.set_defaults(run=cmd_shapes_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except errors.UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except (errors.DblnerveError, OSError) as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
