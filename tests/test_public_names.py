"""The public surface: every name ``semtree`` exports, listed once.

Adding or removing a public name means editing this list, so the change
shows in the diff.
"""

import semtree

PUBLIC_NAMES = [
    "BenchReport",
    "CorruptEncoding",
    "CyclicTaxonomy",
    "DanglingEdge",
    "DecodedPath",
    "EdgeListError",
    "FlatTrainingSet",
    "FormatError",
    "InconsistentRow",
    "InsufficientMemory",
    "LabelError",
    "LevelProbabilities",
    "LossResult",
    "MultiParentResolution",
    "MultipleParents",
    "NEG_INF",
    "NO_PARENT",
    "PAD",
    "ParameterError",
    "ParsedTaxonomy",
    "PartitionedScores",
    "PathLabels",
    "SemtreeError",
    "ShapeError",
    "SyntheticTreeSpec",
    "Taxonomy",
    "TreeEncoding",
    "UnsupportedMaskValue",
    "ValidationReport",
    "Violation",
    "beam_decode",
    "class_depths",
    "cross_entropy",
    "deserialize",
    "display_ids",
    "encode",
    "flatten_for_training",
    "generate_synthetic",
    "levenshtein_decode",
    "map_labels",
    "measured_bytes",
    "naive_decode",
    "parse_edge_list",
    "partition_scores",
    "recover_parents",
    "run_bench",
    "serialize",
    "softmax_levels",
    "storage_bytes",
    "validate",
    "write_edge_list",
]


def test_exports_are_the_listed_names():
    assert sorted(semtree.__all__) == PUBLIC_NAMES


def test_every_export_resolves():
    assert [name for name in semtree.__all__ if not hasattr(semtree, name)] == []
