import fneg

# The public surface: a change here is an API change and must say so.
PUBLIC_NAMES = [
    "CheckReport", "ClassLabel", "ClassificationError", "FnegError", "FockOperator",
    "LayoutError", "MeasureReport", "ModeLayout", "ParityError", "ParityType",
    "ProjectedState", "PureCoeffs", "SamplingError", "StateValidationError", "SubsystemSpec",
    "annihilation_op", "bipartite_report", "biseparable_example", "bosonic_pt",
    "canonical_state", "canonical_vector", "cayley_hdet", "check_identity_suite",
    "check_locc_monotonicity", "check_perturbation_expansion", "conjecture_scan",
    "creation_op", "embed_local", "entropy", "fermionic_pt", "fermionic_pt_majorana",
    "full_transpose", "graded_tensor", "identity_op", "j_abc", "log_negativity",
    "majorana_op", "mixed3_classify", "mutual_information", "n_abc", "negativity",
    "number_op", "parity_op", "parity_project", "partial_trace", "partial_transpose",
    "permute_modes", "pi_abc", "pi_inequality_scan", "pt_moment", "pure3_class",
    "random_density", "random_pure", "random_separable", "subsystem_parity_type",
    "three_tangle", "trace_norm", "tripartite_report", "two_mode_separable",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(fneg.__all__) == PUBLIC_NAMES
    for name in fneg.__all__:
        assert getattr(fneg, name) is not None, name
