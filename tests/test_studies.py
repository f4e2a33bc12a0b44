"""Golden values of the five studies, run through ``run_experiment``.

Every study runs on a tiny mesh of 100 mm cells.  Each CSV field except the
wall-clock ``solve_ms`` and each extra (the refinement model table, the
random-study summaries) is pinned exactly, so a change to the study loops
that alters what a study reports fails here.
"""

import pytest

from emibddc.harness import ExperimentConfig, run_experiment

MESH = {"cells_x": 2, "cells_y": 1, "cells_z": 1, "cell_edge_mm": 100.0}
SIGMA_REST = "extra=20|intra_min=3|intra_max=3"

CASES = {
    "solve_random": {"experiment": "solve"},
    "weak_scaling": {"experiment": "weak_scaling", "grids": [[2, 1, 1], [2, 2, 1]]},
    "refinement": {"experiment": "refinement", "levels": [0, 1]},
    "random_rhs": {"experiment": "random_rhs", "sample_count": 3},
    "random_sigma": {"experiment": "random_sigma", "sample_count": 3},
    "random_sigma_convex": {
        "experiment": "random_sigma",
        "sample_count": 2,
        "variants": ["vef"],
        "mesh": dict(MESH, geometry_kind="convex_cells"),
    },
}

GOLDEN = {
    "solve_random": (
        [
            "2x1x1,3,362,vef,13,4.750045197,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.748551126,3,-,2026," + SIGMA_REST,
        ],
        None,
    ),
    "weak_scaling": (
        [
            "2x1x1,3,362,vef,13,4.750045197,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.748551126,3,-,2026," + SIGMA_REST,
            "2x2x1,5,681,vef,15,4.806420522,28,-,2026," + SIGMA_REST,
            "2x2x1,5,681,ve,15,4.80269871,12,-,2026," + SIGMA_REST,
        ],
        None,
    ),
    "refinement": (
        [
            "2x1x1,3,362,vef,13,4.750045197,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.748551126,3,-,2026," + SIGMA_REST,
            "2x1x1,3,1858,vef,15,4.992188576,9,-,2026," + SIGMA_REST,
            "2x1x1,3,1858,ve,15,4.990672351,3,-,2026," + SIGMA_REST,
        ],
        [
            {
                "refinement": 0,
                "hh": 4,
                "primal_space": "vef",
                "kappa_est": 4.750045197188235,
                "polylog_model": 4.750045197188235,
            },
            {
                "refinement": 0,
                "hh": 4,
                "primal_space": "ve",
                "kappa_est": 4.7485511259938225,
                "polylog_model": 4.7485511259938225,
            },
            {
                "refinement": 1,
                "hh": 8,
                "primal_space": "vef",
                "kappa_est": 4.992188575565441,
                "polylog_model": 7.910312489562984,
            },
            {
                "refinement": 1,
                "hh": 8,
                "primal_space": "ve",
                "kappa_est": 4.990672350718371,
                "polylog_model": 7.907824393231511,
            },
        ],
    ),
    "random_rhs": (
        [
            "2x1x1,3,362,vef,13,4.750045197,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,vef,13,4.733521901,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,vef,13,4.74406412,9,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.748551126,3,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.732510533,3,-,2026," + SIGMA_REST,
            "2x1x1,3,362,ve,13,4.741886068,3,-,2026," + SIGMA_REST,
        ],
        {
            "samples": 6,
            "iter_min": 13.0,
            "iter_mean": 13.0,
            "iter_max": 13.0,
            "kappa_min": 4.73251053257053,
            "kappa_mean": 4.7417631575722625,
            "kappa_max": 4.750045197188235,
        },
    ),
    "random_sigma": (
        [
            "2x1x1,3,362,vef,11,2.764970418,9,-,2026,extra=20|intra_min=4.39976|intra_max=13.1584",
            "2x1x1,3,362,ve,11,2.761006119,3,-,2026,extra=20|intra_min=4.39976|intra_max=13.1584",
            "2x1x1,3,362,vef,12,3.11371689,9,-,2026,extra=20|intra_min=8.23321|intra_max=18.9011",
            "2x1x1,3,362,ve,12,3.113205395,3,-,2026,extra=20|intra_min=8.23321|intra_max=18.9011",
            "2x1x1,3,362,vef,10,2.711166024,9,-,2026,extra=20|intra_min=11.0122|intra_max=12.6223",
            "2x1x1,3,362,ve,11,2.704282951,3,-,2026,extra=20|intra_min=11.0122|intra_max=12.6223",
        ],
        {
            "samples": 6,
            "iter_min": 10.0,
            "iter_mean": 11.166666666666666,
            "iter_max": 12.0,
            "kappa_min": 2.7042829513095015,
            "kappa_mean": 2.8613912996326705,
            "kappa_max": 3.113716890330378,
        },
    ),
    "random_sigma_convex": (
        [
            "2x1x1,3,277,vef,10,2.640509131,4,-,2026,extra=20|intra_min=4.39976|intra_max=13.1584",
            "2x1x1,3,277,vef,11,2.780751319,4,-,2026,extra=20|intra_min=8.81411|intra_max=15.363",
        ],
        {
            "samples": 2,
            "iter_min": 10.0,
            "iter_mean": 10.5,
            "iter_max": 11.0,
            "kappa_min": 2.6405091305066226,
            "kappa_mean": 2.710630224955933,
            "kappa_max": 2.780751319405243,
        },
    ),
}


def _scrub(row) -> str:
    fields = list(row.as_csv())
    fields[7] = "-"  # solve_ms is wall-clock
    return ",".join(fields)


@pytest.mark.parametrize("name", list(CASES))
def test_study_reproduces_golden_rows_and_extras(name):
    spec = dict({"mesh": MESH}, **CASES[name])
    rows, extra = run_experiment(ExperimentConfig.from_dict(spec))
    want_rows, want_extra = GOLDEN[name]
    assert [_scrub(r) for r in rows] == want_rows
    assert extra == want_extra
