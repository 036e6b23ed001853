import hashlib
import json
import tracemalloc

import pytest

from polarlab import projspace
from polarlab.gf import field_of_order
from polarlab.kleinmap import klein_point
from polarlab.projspace import GeometryError, enumerate_lines
from polarlab.polarspace import bound_min_weight_dual, get_space, standard_polar_space
from polarlab import constructions as C


def check(result):
    """Weight matches the closed form and the vector kills every row."""
    assert result is not None
    weight_ok, dual_ok, witness = result.check()
    assert weight_ok, (result.codeword.weight, result.predicted_weight)
    assert dual_ok, witness
    return result


@pytest.mark.parametrize("q,expected", [(2, 6), (3, 8), (4, 10)])
def test_two_reguli(q, expected):
    r = check(C.cw_two_reguli(q))
    assert r.predicted_weight == expected == 2 * q + 2


def test_two_reguli_any_symbol():
    r = check(C.cw_two_reguli(3, alpha=2))
    assert r.predicted_weight == 8


def test_two_reguli_rejects_zero_symbol():
    with pytest.raises(GeometryError):
        C.cw_two_reguli(3, alpha=3)


@pytest.mark.parametrize("build", [
    lambda: C.cw_two_pencils(3, beta=3),
    lambda: C.cw_regulus_combination(2, 0, alpha=2),
    lambda: C.cw_hermitian_pair(2, "curve_pair", alpha=2),
    lambda: C.cw_disjoint_perp_cones("Qminus", 2, alpha=4),
    lambda: C.cw_polar_pair("Qplus", 2, 2, alpha=2),
], ids=["two-pencils", "regulus-combination", "hermitian-pair",
        "disjoint-cones", "polar-pair"])
def test_zero_symbol_is_rejected(build):
    with pytest.raises(GeometryError, match="symbol must be nonzero"):
        build()


@pytest.mark.parametrize("q,expected", [(2, 8), (3, 12), (4, 16)])
def test_two_pencils(q, expected):
    r = check(C.cw_two_pencils(q))
    assert r.predicted_weight == expected == 4 * q


@pytest.mark.parametrize("q,i,expected", [(2, 0, 30), (2, 1, 28),
                                          (4, 0, 340), (4, 1, 338),
                                          (4, 2, 336), (8, 0, 4680),
                                          (8, 4, 4672)])
def test_regulus_switch(q, i, expected):
    r = check(C.cw_regulus_switch(q, i))
    assert r.predicted_weight == expected


def test_regulus_switch_rejects_bad_parameters():
    with pytest.raises(GeometryError):
        C.cw_regulus_switch(3, 0)  # odd q
    with pytest.raises(GeometryError):
        C.cw_regulus_switch(2, 2)  # i > q/2


@pytest.mark.parametrize("family,q,expected", [("Q", 2, 10), ("Q", 4, 68),
                                               ("Qplus", 2, 30),
                                               ("Qplus", 8, 4680)])
def test_complement_ovoid(family, q, expected):
    r = check(C.cw_complement_ovoid(family, q))
    assert r.predicted_weight == expected


def test_complement_ovoid_q16_within_budget():
    # the elliptic section of Q(4,16) is found without its 4,369 x 69,905
    # point x hyperplane matrix, with which this peaked at 321.58 MB
    tracemalloc.start()
    try:
        C.cw_complement_ovoid("Q", 16)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < projspace.BYTE_BUDGET


def test_hyperplane_section_refused_before_allocating(monkeypatch):
    # the pairing of the 4,369 points of Q(4,16) with the 69,905 hyperplanes
    # of PG(4,16), 2.69 MB: one byte under its charge nothing of either is
    # formed, and at the charge the section is found
    P = get_space("Q", 4, 16)
    projspace._tables(P.F)
    unit = [[int(i == j) for j in range(5)] for i in range(5)]
    charge = projspace.pairing_bytes(unit, P.F, 4369, 69905) + projspace._FIXED_BYTES
    monkeypatch.setattr(projspace, "BYTE_BUDGET", charge - 1)
    tracemalloc.start()
    try:
        with pytest.raises(projspace.ResourceError,
                           match=rf"^Q\(4,16\): hyperplane section needs {charge} bytes"):
            C.cw_complement_ovoid("Q", 16)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(projspace, "BYTE_BUDGET", charge)
    assert len(C.elliptic_hyperplane_section(P)) == 16 ** 2 + 1


def test_every_pairing_is_charged_before_it_is_formed(monkeypatch):
    # with a budget of one byte past the allowance, each step that pairs the
    # points of Q(4,4) is refused before a pairing of its vectors exists;
    # `pairing_bytes` forms a pairing of one vector to size the tables
    P = standard_polar_space("Q", 4, field_of_order(4))
    projspace._hyperplane_pairing.cache_clear()
    monkeypatch.setattr(projspace, "BYTE_BUDGET", projspace._FIXED_BYTES + 1)
    fixed = []
    init = projspace.Pairing.__init__
    monkeypatch.setattr(projspace.Pairing, "__init__", lambda self, Y, *args, **kw:
                        fixed.append(len(Y)) or init(self, Y, *args, **kw))
    for step in (lambda: P.singular_kspaces_with_supports(1), P.adjacency,
                 lambda: C.elliptic_hyperplane_section(P),
                 lambda: projspace.hyperplane_sums(P.points, [1] * 85, 4, P.F)):
        with pytest.raises(projspace.ResourceError):
            step()
    assert set(fixed) == {1}


def test_hyperplane_section_of_no_hyperplane_refused():
    # the hyperplane sections of Q(4,2) have 5, 7 or 9 points
    with pytest.raises(GeometryError, match="^no elliptic hyperplane section found$"):
        C._first_hyperplane_section(get_space("Q", 4, 2), 6, "elliptic")


def test_complement_ovoid_rejects_odd_q():
    with pytest.raises(GeometryError):
        C.cw_complement_ovoid("Q", 3)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("variant,formula", [
    ("affine", lambda q: q ** 3),
    ("affine_plus_pair", lambda q: q ** 3 + 2),
    ("ovoid_plus_pair", lambda q: q ** 3 - q + 2),
])
def test_symplectic_examples(q, variant, formula):
    r = check(C.cw_wq_examples(q, variant))
    assert r.predicted_weight == formula(q)


@pytest.mark.parametrize("variant,expected", [("curve_pair", 18),
                                              ("cone_pair", 24)])
def test_hermitian_pair(variant, expected):
    r = check(C.cw_hermitian_pair(2, variant))
    assert r.predicted_weight == expected


@pytest.mark.parametrize("family,expected", [("Qminus", 12), ("H", 56)])
def test_disjoint_perp_cones(family, expected):
    r = check(C.cw_disjoint_perp_cones(family, 2))
    assert r.predicted_weight == expected


def test_elliptic_cone_pair_meets_its_bound():
    r = check(C.cw_disjoint_perp_cones("Qminus", 2))
    bound = bound_min_weight_dual("elliptic", 2, 1, 2)
    assert r.predicted_weight == bound == 12


@pytest.mark.parametrize("family,n,expected", [
    ("Qplus", 2, 6),      # parabolic section pair, 2 theta_1
    ("Qplus", 3, 10),     # elliptic section pair
    ("H", 5, 18),
])
def test_polar_pair(family, n, expected):
    r = check(C.cw_polar_pair(family, n, 2))
    assert r.predicted_weight == expected


@pytest.mark.parametrize("family,n,k,flavor,expected", [
    ("Qplus", 3, 1, "parabolic", 72),
    ("Qplus", 3, 1, "tangent", 64),
    ("Qplus", 3, 2, "cone", 108),
    ("Q", 2, 1, "cone", 10),
    ("Q", 3, 1, "cone", 36),
    ("Qminus", 2, 1, "cone", 16),
    ("H", 4, 1, "cone", 128),
    ("H", 5, 1, "cone", 528),
])
def test_complement_cone(family, n, k, flavor, expected):
    r = check(C.cw_complement_cone(family, n, 2, k, flavor))
    assert r.predicted_weight == expected


def test_complement_cone_rejects_odd_q():
    with pytest.raises(GeometryError):
        C.cw_complement_cone("Qplus", 3, 3, 1, "parabolic")


@pytest.mark.parametrize("family,n,k,flavor", [
    ("Qplus", 3, 1, "cone"),      # hyperbolic k=1 needs parabolic or tangent
    ("Qplus", 3, 2, "bogus"),
    ("Qplus", 3, 2, "tangent"),
    ("Q", 3, 1, "tangent"),
    ("H", 4, 1, "parabolic"),
])
def test_complement_cone_rejects_flavor_without_meaning(family, n, k, flavor):
    with pytest.raises(GeometryError, match="flavor"):
        C.cw_complement_cone(family, n, 2, k, flavor)


def test_regulus_combination_reports_outcome():
    r = C.cw_regulus_combination(2, 0)
    check(r)
    assert r.codeword.weight == 12  # disjoint quadrics: weights add
    r1 = C.cw_regulus_combination(2, 1)
    check(r1)
    assert r1.codeword.weight == 10  # one shared line cancels twice


def test_regulus_combination_orientation():
    # over GF(3) a negative orientation puts +1 on the opposite regulus of
    # the second quadric, so the shared Klein point cancels only then;
    # 0 swaps nothing
    r, r0, r_neg = (check(C.cw_regulus_combination(3, 1, orientation=o))
                    for o in (1, 0, -1))
    assert r.codeword.support == r0.codeword.support
    assert (r.codeword.weight, r_neg.codeword.weight) == (15, 14)


def test_regulus_combination_lists_quadrics_lazily():
    C._hyperbolic_quadrics.cache_clear()
    assert C.cw_regulus_combination(2, 0).codeword.weight == 12
    # the first disjoint pair is (0, 55): no quadric past 55 was listed
    assert len(C._hyperbolic_quadrics(2)._items) == 56
    # no two quadrics share 4 lines: every pair is tried, over all
    # q^4 (q^3 - 1)(q^2 + 1) / 2 = 280 quadrics
    assert C.cw_regulus_combination(2, 4) is None
    assert len(C._hyperbolic_quadrics(2)._items) == 280


def test_hyperbolic_quadrics_pinned():
    # the (regulus, opposite regulus) bases of all 280 quadrics of PG(3,2),
    # in listing order: the lines of the conics in each plane and its
    # polar plane, sorted; the indices cover both conics, 2(q+1) points
    F = field_of_order(2)
    P = get_space("Qplus", 5, 2)
    line = {klein_point(L, F): L for L in enumerate_lines(3, F)}
    pairs = []
    for plane, perp, on in C._hyperbolic_quadrics(2):
        R, O = (sorted(line[x] for x in C._on(P, S)) for S in (plane, perp))
        assert on == {P.index[klein_point(L, F)] for L in R + O}
        assert len(on) == 6
        pairs.append((tuple(L.basis for L in R), tuple(L.basis for L in O)))
    assert len(pairs) == 280
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "4dc7e99f6fd0825b580f422e7585bc3bb312b16ad110d71c439706713afe9236")


def test_weights_respect_bounds():
    cases = [
        (C.cw_two_reguli(2), ("hyperbolic", 2, 2, 2)),
        (C.cw_complement_ovoid("Q", 2), ("parabolic", 2, 1, 2)),
        (C.cw_disjoint_perp_cones("Qminus", 2), ("elliptic", 2, 1, 2)),
        (C.cw_disjoint_perp_cones("H", 2), ("hermitian", 4, 1, 2)),
        (C.cw_hermitian_pair(2, "curve_pair"), ("hermitian", 5, 2, 2)),
    ]
    for r, params in cases:
        assert r.codeword.weight >= bound_min_weight_dual(*params)


def test_registry_covers_all_constructions():
    assert set(C.CONSTRUCTIONS) == {
        "two-reguli", "two-pencils", "regulus-combination",
        "regulus-switch", "complement-ovoid", "wq-example",
        "hermitian-pair", "disjoint-cones", "polar-pair",
        "complement-cone"}


# weight, bound and support sha256 of every construct-verify row of the
# benchmark (perfbench/reference.json): the 33 rows of weight_table.py and
# two regulus combinations
PINNED = [
    ("two-reguli", (2,), 6, 4,
     "00c73ff6f8493d478d85b87ebda79fb37226717c1faa41b4ba188fd3580b8feb"),
    ("two-reguli", (3,), 8, 5,
     "ce5be2ca0ca5c60ecdd25a1f76be277917d01b804cf049789f12204898679dbc"),
    ("two-reguli", (4,), 10, 6,
     "205105a5bcfb27f02f58ca3a1112ac000fc174a8f0f594089a3573adcf84ef46"),
    ("two-pencils", (2,), 8, 4,
     "79be0dabf7cceb0c26370944a13b493183e7cd262e3ed8ced166252c50be43b8"),
    ("two-pencils", (3,), 12, 5,
     "7e03db1d8f3da65b8ff50606936df372e60045fcefecfa894b76a6b1fccd6de1"),
    ("two-pencils", (4,), 16, 6,
     "509381368e9e80a588f594cec6e6b3b4694e3842b15d46fe519abc05845a9683"),
    ("regulus-switch", (2, 0), 30, 4,
     "97be62a8234e66501829d3f74b737cf3a1c5f0ee6db21f102ae8f119b0be2b87"),
    ("regulus-switch", (2, 1), 28, 4,
     "d470e585e84a287d84cb60dcc22abe047562ee8b2f416bb91b587eee289c1cb9"),
    ("regulus-switch", (4, 0), 340, 6,
     "1e74860e8186f31499f42e025559e342d73cb7448a354d2575b9b71c588e8cfe"),
    ("regulus-switch", (4, 1), 338, 6,
     "aa5d55c3b7b2c9ef52c80b4ce48dc5b47425eb9b3a9bd658a61cf9e5c201927d"),
    ("regulus-switch", (4, 2), 336, 6,
     "13aeeee95110b55f3492114c9c9fca6b3d03eafa50d079e158ed566cc4ace054"),
    ("complement-ovoid", ("Q", 2), 10, 4,
     "c010e932f754e86a8f22643bf8cf8b0f1f4da3a5a25c676a19f30165f1339e32"),
    ("complement-ovoid", ("Q", 4), 68, 6,
     "1cd540cc2edbcdf916845c0854880878e7c3c17a347f52cbea284a6d7d1c3392"),
    ("complement-ovoid", ("Qplus", 2), 30, 4,
     "97be62a8234e66501829d3f74b737cf3a1c5f0ee6db21f102ae8f119b0be2b87"),
    ("wq-example", (2, "affine"), 8, 4,
     "9cc2ce771b92729e2898c7ea48822bc9184fafda5b09dc3d144cedea7aee041c"),
    ("wq-example", (2, "affine_plus_pair"), 10, 4,
     "a13148152129814fff196665720defac5e3fd14a49704d75b470271d660674e2"),
    ("wq-example", (2, "ovoid_plus_pair"), 8, 4,
     "05e9f906622466e38b58ebfa78ac7f3c72b473c20225aa855f2b3f4a78367e94"),
    ("wq-example", (4, "affine"), 64, 6,
     "66b86d8d7c73827f5fa5d8737fdecbbf700f9370d01111f373ad6afad3ba9f8e"),
    ("wq-example", (4, "affine_plus_pair"), 66, 6,
     "16cbb340bcb84d2fbd39c73be5bd78e5f819b09ea17f5bc32b5d78d2a78e434e"),
    ("wq-example", (4, "ovoid_plus_pair"), 62, 6,
     "538a52f58d1626aab342d05093c56ddd8d170db830e083dcde30ab212f824dfc"),
    ("hermitian-pair", (2, "curve_pair"), 18, 10,
     "fff5af44c620c63c64f84eb809510b0b873ca849adf9c3e17fe45c6a1c24bb30"),
    ("hermitian-pair", (2, "cone_pair"), 24, 10,
     "63567669e502f332deea594a6e291aeeca65ec03c08e00bd3b3e29762642f6f8"),
    ("disjoint-cones", ("Qminus", 2), 12, 12,
     "945ab666eeba26556eac62bde2c1f1ba96648e93875e36fa74711622363b0d4f"),
    ("disjoint-cones", ("H", 2), 56, 30,
     "5e20556a29e771b704275fb9a07b96c2ba5650ba991fa7c8e3c8fe77fffac882"),
    ("polar-pair", ("Qplus", 2, 2), 6, 4,
     "6941ebf1b569fb908f30426c233bf72204be0d83a4bf7153d18960762152f81c"),
    ("polar-pair", ("Qplus", 3, 2), 10, 6,
     "fa0d878c7f65e822c752a389c452835fbb7a91b556ab89f258adef8935a9cebe"),
    ("complement-cone", ("Qplus", 3, 2, 1, "parabolic"), 72, 36,
     "3782bf73e6c8ca14d382414755fa04afb8f8642bb681f600edaea48fe5085b73"),
    ("complement-cone", ("Qplus", 3, 2, 1, "tangent"), 64, 36,
     "550f66366ef1494d9ab4b44682c7a3817d95b0c6c9be98ebfb9ce02733aaefef"),
    ("complement-cone", ("Qplus", 3, 2, 2), 108, 13,
     "f792c3efedc9956a1353ed4c821710a1a69653f05a896d43f03b4f18c2ce412d"),
    ("complement-cone", ("Q", 3, 2, 1), 36, 16,
     "7e3dafd042c6e2106ffb50940f1d318a683b670ceaff07a917828dea2cef204e"),
    ("complement-cone", ("Qminus", 3, 2, 1), 64, 28,
     "2bc879393bb79780c8c37d69b80376579f3e56d9230884a9499e179024930d39"),
    ("complement-cone", ("H", 4, 2, 1), 128, 30,
     "45032bd79b055f00f8b726f64d3bb1d62838d5431e45405d2820ea7851a5291b"),
    ("complement-cone", ("H", 5, 2, 1), 528, 46,
     "2b75502f9b9aef79b5de0e83ae478718507ed9ff3be41e489c14e525ec8b2a38"),
    ("regulus-combination", (2, 0), 12, 4,
     "2a6b03748b3a969e2ef20fdb7ff1bc37c98026245b43134db5593fb8b356ce53"),
    ("regulus-combination", (2, 1), 10, 4,
     "32f6167e17460fa39f2969fb5eca14fff7af6247a942ae888d17a9b305af98bc"),
]


@pytest.mark.parametrize("key,args,weight,bound,sha", PINNED, ids=[
    "-".join(map(str, (key, *args))) for key, args, *_ in PINNED])
def test_codewords_pinned(key, args, weight, bound, sha):
    r = C.CONSTRUCTIONS[key](*args)
    assert r.codeword.weight == r.predicted_weight == weight
    assert bound_min_weight_dual(r.space.family, r.space.rank_param, r.k,
                                 r.space.q) == bound
    support = sorted(r.codeword.support.items())
    assert hashlib.sha256(json.dumps(support).encode()).hexdigest() == sha
