import bayesmlp


def test_every_exported_name_resolves():
    assert len(set(bayesmlp.__all__)) == len(bayesmlp.__all__)
    missing = [name for name in bayesmlp.__all__ if not hasattr(bayesmlp, name)]
    assert missing == []
