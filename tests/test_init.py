import bpre

REMOVED = ("ExactPmf", "WeightedSequence", "enumerate_env_sequences",
           "exact_population_distribution", "QuenchedReport",
           "quenched_martingale_check", "EnvSequence",
           "sample_env_sequence")


def test_public_surface():
    # every exported name resolves, once, and the brute-force references
    # live in the tests, not the package
    assert len(bpre.__all__) == len(set(bpre.__all__)) == 43
    assert [name for name in bpre.__all__ if not hasattr(bpre, name)] == []
    assert [name for name in REMOVED if hasattr(bpre, name)] == []
