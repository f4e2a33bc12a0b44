"""The region table: one region cut into two substructures.

The bath of the two-cell row is re-tagged as substructures 0 (x below one
cell edge) and 3 (above), both of region 0 (the ``split_bath`` fixture).
The model is unchanged, so the global unknowns and operators must equal the
unsplit mesh's; the cut is an ordinary conforming interface.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from emibddc.assembly import ModelParams, assemble_system
from emibddc.errors import ConstraintError
from emibddc.femspace import build_composite_space, build_primal_constraints
from emibddc.geometry import BATH, extract_interfaces


def _pipeline(mesh, params=ModelParams()):
    topo = extract_interfaces(mesh)
    dm = build_composite_space(mesh, topo)
    return topo, dm, assemble_system(mesh, topo, dm, params)


def test_split_bath_keeps_the_model(split_bath):
    whole, split = split_bath
    assert split.n_substructures == 4 and split.n_regions == 3
    _, dm_whole, ops_whole = _pipeline(whole)
    topo, dm, ops = _pipeline(split)

    # one unknown per (region, node): the cut adds none
    assert dm_whole.n_global == dm.n_global == 362
    # K = tau*A + M agrees at two steps, so the stiffness and the mass each do
    for tau in (0.01, 1.0):
        a, b = (_pipeline(m, ModelParams(tau=tau))[2].matrix for m in (split, whole))
        npt.assert_allclose(a.toarray(), b.toarray(), rtol=0, atol=1e-14)
    npt.assert_array_equal(ops.sigma, ops_whole.sigma)

    # the local operators still subassemble to K
    n = dm.n_global
    acc = sp.csr_matrix((n, n))
    for lo in ops.local_ops:
        g = dm.local_to_global[lo.sub]
        r = sp.csr_matrix((np.ones(len(g)), (np.arange(len(g)), g)), shape=(len(g), n))
        acc = acc + r.T @ lo.matrix @ r
    npt.assert_allclose(acc.toarray(), ops.matrix.toarray(), rtol=0, atol=1e-14)

    # the two bath pieces share their unknowns at the cut
    cut = topo.face_group(0, 3)
    npt.assert_array_equal(
        dm.local_to_global[0][dm.local_ids(0, BATH, cut.nodes)],
        dm.local_to_global[3][dm.local_ids(3, BATH, cut.nodes)],
    )


def test_split_bath_face_kinds(split_bath):
    _, split = split_bath
    topo = extract_interfaces(split)
    kinds = {(fg.sub_i, fg.sub_j): fg.kind for fg in topo.faces}
    assert kinds[(0, 3)] == "conforming"
    assert kinds[(0, 1)] == "membrane" and kinds[(2, 3)] == "membrane"
    assert kinds[(1, 2)] == "gap"


def test_split_bath_has_no_primal_classes_yet(split_bath):
    _, split = split_bath
    topo, dm, _ = _pipeline(split)
    for variant in ("vef", "ve"):
        with pytest.raises(ConstraintError, match="conforming"):
            build_primal_constraints(dm, topo, variant)
