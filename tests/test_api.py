import rip


def test_exports_are_unique_and_resolve():
    assert len(set(rip.__all__)) == len(rip.__all__)
    for name in rip.__all__:
        assert getattr(rip, name) is not None, name


def test_per_step_and_pair_types_are_gone():
    # A step is a row of a trajectory's array; a demonstration is a
    # (KeypointSet, Trajectory) pair.
    for name in ("Action", "Demonstration"):
        assert name not in rip.__all__
        assert not hasattr(rip, name)
        assert not hasattr(rip.core, name)
