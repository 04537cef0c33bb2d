"""Command line front end.

Every id printed or read here is 1-based, matching the file formats;
the library itself works 0-based. Subcommands mirror the library
surface: encode an edge list, partition scores, map labels, flatten
for training, decode, validate an encoding file, and benchmark.
"""

import argparse
import sys

from . import bench as bench_mod
from . import fileio
from .errors import LabelError, SemtreeError
from .inference import (
    beam_decode,
    levenshtein_decode,
    naive_decode,
    softmax_levels,
)
from .ingestion import SyntheticTreeSpec, generate_synthetic, parse_edge_list
from .transforms import (
    NEG_INF,
    cross_entropy,
    flatten_for_training,
    map_labels,
    partition_scores,
)
from .tree import display_ids, encode, measured_bytes, validate

MASK_VALUES = {"neginf": NEG_INF, "nan": float("nan")}


def _print_matrix(rows) -> None:
    for row in rows:
        print(" ".join(str(int(v)) for v in row))


def cmd_encode(args) -> int:
    parsed = parse_edge_list(args.edges, policy=args.policy)
    for res in parsed.resolutions:
        kept = "root" if res.kept == -1 else f"parent {res.kept + 1}"
        dropped = "root" if res.dropped == -1 else f"parent {res.dropped + 1}"
        print(f"class {res.child + 1}: kept {kept}, dropped {dropped}")
    enc = encode(parsed.taxonomy)
    print(
        f"encoded {enc.num_classes} classes over {enc.num_levels} levels "
        f"({measured_bytes(enc)} bytes in memory)"
    )
    if args.dump:
        print(f"masks {enc.num_levels} x {enc.num_classes}")
        _print_matrix(enc.masks.astype(int))
        print(f"paths {enc.num_classes} x {enc.num_levels}")
        _print_matrix(display_ids(enc.paths))
    if args.out:
        fileio.write_encoding(enc, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_transform_scores(args) -> int:
    enc = fileio.read_encoding(args.encoding)
    scores = fileio.read_scores(args.scores)
    parts = partition_scores(enc, scores, mask_value=MASK_VALUES[args.mask_value])
    b, L, n = parts.data.shape
    print(
        f"partitioned {b} x {n} scores into {b} x {L} x {n} "
        f"({bench_mod.partitioned_bytes(b, L, n)} bytes as float32)"
    )
    if args.out:
        fileio.write_partitioned(parts, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_transform_labels(args) -> int:
    enc = fileio.read_encoding(args.encoding)
    labels = fileio.read_labels(args.labels)
    paths = map_labels(enc, labels)
    print(f"mapped {paths.batch_size} labels to paths over {paths.num_levels} levels")
    if args.dump:
        _print_matrix(display_ids(paths.data))
    if args.out:
        fileio.write_path_labels(paths, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_flatten(args) -> int:
    parts = fileio.read_partitioned(args.partitioned)
    paths = fileio.read_path_labels(args.path_labels)
    flat = flatten_for_training(parts, paths)
    total = parts.data.shape[0] * parts.data.shape[1]
    print(f"retained {flat.num_rows} of {total} rows")
    if args.loss:
        result = cross_entropy(flat)
        print(f"mean loss {result.value:.6f}")
    if args.out:
        fileio.write_flat(flat, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_decode(args) -> int:
    enc = fileio.read_encoding(args.encoding)
    scores = fileio.read_scores(args.scores)
    probs = softmax_levels(partition_scores(enc, scores))
    if args.method == "beam":
        decoded = beam_decode(
            enc, probs, args.k, length_normalize=args.length_normalize
        )
        values = [[p.score for p in sample] for sample in decoded]
    else:
        naive = naive_decode(probs)
        decoded = levenshtein_decode(enc, naive, args.k, probs=probs)
        values = [[p.distance for p in sample] for sample in decoded]
    for i, sample in enumerate(decoded):
        for rank, path in enumerate(sample):
            classes = " ".join(str(c + 1) for c in path.classes)
            print(f"{i + 1} {rank + 1} {values[i][rank]:.6f} {classes}")
    return 0


def cmd_validate(args) -> int:
    enc = fileio.read_encoding(args.encoding, check=False)
    report = validate(enc)
    if report.ok:
        print(
            f"encoding is valid: {enc.num_classes} classes, "
            f"{enc.num_levels} levels"
        )
        return 0
    for line in report.lines():
        print(line)
    print(f"{len(report.violations)} violations")
    return 1


def cmd_bench(args) -> int:
    spec = SyntheticTreeSpec(
        num_classes=args.classes, num_levels=args.levels, seed=args.seed
    )
    enc = encode(generate_synthetic(spec))
    report = bench_mod.run_bench(enc, args.batch, args.reps, seed=args.seed)
    if args.format in ("table", "both"):
        print(report.as_table())
    if args.format in ("kv", "both"):
        print(report.as_kv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtree",
        description="Encode class trees and transform batched scores and labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an edge list file")
    p.add_argument("edges", help="edge list: '<child> <parent>' or bare root ids, 1-based")
    p.add_argument("--out", help="write the encoding here")
    p.add_argument(
        "--policy",
        choices=("first", "reject"),
        default="first",
        help="what to do when a class has several parents",
    )
    p.add_argument("--dump", action="store_true", help="print both matrices")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("transform-scores", help="partition flat scores by level")
    p.add_argument("encoding")
    p.add_argument("scores", help="binary score file or CSV")
    p.add_argument("--mask-value", choices=sorted(MASK_VALUES), default="neginf")
    p.add_argument("--out", help="write the partitioned tensor here")
    p.set_defaults(func=cmd_transform_scores)

    p = sub.add_parser("transform-labels", help="map flat labels to ancestral paths")
    p.add_argument("encoding")
    p.add_argument("labels", help="binary label file or CSV, 1-based")
    p.add_argument("--out", help="write the path labels here")
    p.add_argument("--dump", action="store_true", help="print the mapped paths")
    p.set_defaults(func=cmd_transform_labels)

    p = sub.add_parser("flatten", help="flatten partitioned scores for training")
    p.add_argument("partitioned")
    p.add_argument("path_labels", metavar="path-labels")
    p.add_argument("--out", help="write the flat training set here")
    p.add_argument(
        "--loss", action="store_true", help="also print the mean cross entropy"
    )
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("decode", help="predict valid paths from flat scores")
    p.add_argument("encoding")
    p.add_argument("scores", help="binary score file or CSV")
    p.add_argument("--method", choices=("beam", "levenshtein"), default="beam")
    p.add_argument("--k", type=int, default=1, help="paths to keep per sample")
    p.add_argument(
        "--length-normalize",
        action="store_true",
        help="rank beam paths by mean instead of total log probability",
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("validate", help="check every invariant of an encoding file")
    p.add_argument("encoding")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="time the transforms on a synthetic tree")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "kv", "both"), default="table")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LabelError as e:
        # Files and output are 1-based, so re-render the offending label.
        print(
            f"error: label {e.value + 1} at entry {e.batch_index + 1} is "
            f"outside 1..{e.num_classes}",
            file=sys.stderr,
        )
        return 1
    except (SemtreeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
