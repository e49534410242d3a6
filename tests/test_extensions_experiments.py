"""The extension experiments' claims, read from the claims table at
``--quick`` (``repro.experiments.report.CLAIMS``)."""


def test_synce_ablation(assert_claims):
    assert_claims("extensions/synce-no-worse", "extensions/synce-within-2")


def test_spanning_tree_comparison(assert_claims):
    assert_claims(
        "extensions/plain-follows-runaway",
        "extensions/tree-holds-rate",
        "extensions/tree-within-8",
    )


def test_boundary_cascade_grows(assert_claims):
    assert_claims("extensions/cascade-grows")
