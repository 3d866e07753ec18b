import ietlab

# The public names, spelled out so that adding or removing one is a visible change.
PUBLIC_NAMES = [
    "AdmissibilityResult", "AdmissibleInterval", "BratteliDiagram", "BratteliLevel",
    "Certificate", "ClosedTransversalRequired", "ConeApprox", "ConsistencyViolation",
    "DEFAULT_MAX_STEPS", "DegenerateAt", "DepthExceeded", "DimensionGroup", "Floor",
    "GroupElement", "HorizonExceedsDepth", "IdocResult", "Iet", "IetlabError",
    "InductionStep", "InvalidPermutation", "LSigma", "Marker", "MeasureVector",
    "MixedRadicand", "NonPositiveLength", "NotAdmissible", "NotVerifiedIDOC",
    "OrbitPoint", "OutOfDomain", "ParseError", "Permutation", "QuadReal", "Reducible",
    "ReturnTimeExceeded", "ShapeViolation", "Singularity", "SingularityProfile",
    "Strip", "StripLevel", "Tower", "TowerPartition", "basic_interval", "bratteli",
    "coinvariant_shift", "column_sums", "cone_approx", "det", "dimension_group",
    "dual_cone_test", "empirical_measure", "export_bratteli", "first_return_blocks",
    "format_quad", "identity", "idoc_check", "iet_new", "induce", "irreducible",
    "is_admissible", "l_sigma", "mat_mul", "orbit", "orbit_classes", "orbit_point",
    "parse_quad", "permutation", "positivity", "quad", "quad_approx", "quad_floor",
    "quad_sign", "radical", "render_strip_level", "shrink_sequence",
    "singularity_profile", "strip_class_matrix", "strip_coordinates",
    "strip_decomposition", "towers", "unique_ergodicity_certificate", "whole_interval",
]


def test_public_api_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert ietlab.__all__ == PUBLIC_NAMES
    assert all(hasattr(ietlab, name) for name in PUBLIC_NAMES)
