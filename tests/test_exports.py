"""The package's export list names what it exports, once each."""
import crystalfpp

# public names taken out of the package; none may come back through __all__
REMOVED = ("check_symmetry", "lift_path", "LiftedPath", "PathSeq", "OutOfWindowError",
           "restricted_passage", "passage_between_points", "passage_to_affine",
           "closest_vertex", "tree_partition", "norm_property_report")


def test_every_export_resolves():
    missing = [name for name in crystalfpp.__all__ if not hasattr(crystalfpp, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(crystalfpp.__all__) == len(set(crystalfpp.__all__))


def test_removed_names_are_gone():
    assert [name for name in REMOVED
            if name in crystalfpp.__all__ or hasattr(crystalfpp, name)] == []
