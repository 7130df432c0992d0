"""Prompt templates, normalization, and the inter-class distance metric."""

import math

import numpy as np
import pytest

from fgpan.data import ClassPrototype, PrototypeSet
from fgpan.prototypes import (
    DescriptionTriple,
    interclass_distance,
    mean_description_embedding,
    normalize_prototypes,
    render_description,
    render_prompt,
)


def pset_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return PrototypeSet(
        rows.shape[1],
        [ClassPrototype(i, f"c{i}", f"d{i}", r) for i, r in enumerate(rows)],
    )


class TestPromptTemplate:
    def test_expected_opening(self):
        out = render_prompt("Glioblastoma", "glioma")
        assert out.startswith(
            "As a neuropathology expert, what distinctive multiscale features "
            "on whole slide images differentiate Glioblastoma from other "
            "glioma per WHO CNS5 criteria?"
        )

    def test_format_placeholders_survive(self):
        out = render_prompt("Glioblastoma", "glioma")
        assert "'[class] with [molecular feature] and [histological pattern]'" in out

    def test_pure(self):
        assert render_prompt("A", "B") == render_prompt("A", "B")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            render_prompt("", "glioma")
        with pytest.raises(ValueError):
            render_prompt("Glioblastoma", "")


class TestDescriptionTemplate:
    def test_reference_expansion(self):
        t = DescriptionTriple(
            "Anaplastic oligodendroglioma, IDH-mutant and 1p/19q-codeleted",
            "IDH1 R132H mutation with 1p/19q whole-arm codeletion",
            "microcystic honeycomb architecture containing fried-egg cells",
        )
        assert render_description(t) == (
            "Anaplastic oligodendroglioma, IDH-mutant and 1p/19q-codeleted "
            "with IDH1 R132H mutation with 1p/19q whole-arm codeletion "
            "and microcystic honeycomb architecture containing fried-egg cells"
        )

    def test_template_mechanics(self):
        assert render_description(DescriptionTriple("A", "B", "C")) == "A with B and C"

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            DescriptionTriple("A", "B", "")


class TestNormalization:
    def test_three_four_five(self):
        pset = normalize_prototypes(pset_from_rows([[3.0, 4.0]]))
        np.testing.assert_allclose(pset.prototypes[0].embedding, [0.6, 0.8], rtol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        pset = normalize_prototypes(pset_from_rows(rng.standard_normal((3, 5))))
        again = normalize_prototypes(pset)
        np.testing.assert_allclose(again.matrix(), pset.matrix(), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero embedding"):
            normalize_prototypes(pset_from_rows([[0.0, 0.0]]))

    def test_mean_description_embedding(self):
        vecs = [[1.0, 0.0], [0.0, 1.0]]
        out = mean_description_embedding(vecs)
        np.testing.assert_allclose(out, [1 / math.sqrt(2)] * 2, rtol=1e-15)


class TestInterclassDistance:
    def test_coincident_is_zero(self):
        pset = pset_from_rows([[1.0, 0.0], [1.0, 0.0]])
        assert interclass_distance(pset) == 0.0

    def test_orthogonal_pair_is_sqrt2(self):
        pset = pset_from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert abs(interclass_distance(pset) - math.sqrt(2)) < 1e-15

    def test_three_orthogonal_is_sqrt2(self):
        pset = pset_from_rows(np.eye(3))
        assert abs(interclass_distance(pset) - math.sqrt(2)) < 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((5, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        base = interclass_distance(pset_from_rows(rows))
        for _ in range(5):
            perm = rng.permutation(5)
            assert abs(interclass_distance(pset_from_rows(rows[perm])) - base) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((4, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = interclass_distance(pset_from_rows(rows))
        rotated = interclass_distance(pset_from_rows(rows @ q))
        assert abs(base - rotated) < 1e-12

    def test_matches_cosine_identity(self):
        """Unit vectors: pairwise distance equals sqrt(2 - 2 cos(theta))."""
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 7))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        want = math.sqrt(2.0 - 2.0 * float(a @ b))
        got = interclass_distance(pset_from_rows([a, b]))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("c", range(2, 13))
    def test_equals_scipy_pdist_mean(self, c):
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        rng = np.random.default_rng(c)
        for d in (1, 2, 16, 100, 512):
            rows = rng.standard_normal((c, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            want = pdist(rows).mean()
            assert abs(interclass_distance(pset_from_rows(rows)) - want) <= 1e-14 * want

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            interclass_distance(pset_from_rows([[1.0, 0.0]]))

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            interclass_distance(pset_from_rows([[2.0, 0.0], [0.0, 1.0]]))
