import pathqv

REMOVED = ("solve_B", "flow_derivatives", "FlowPoint", "stieltjes_integral")


def test_every_exported_name_resolves():
    for name in pathqv.__all__:
        assert getattr(pathqv, name) is not None, name


def test_exports_have_no_duplicates():
    assert len(pathqv.__all__) == len(set(pathqv.__all__))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in pathqv.__all__
        assert not hasattr(pathqv, name), name
