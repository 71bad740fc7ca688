import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealdlm.data import (
    Observation,
    ObservationSet,
    StudyDesign,
    TransformSpec,
    align_observations,
    apply_transform,
    assemble_design,
    build_adjacency,
    load_observations,
)
from arealdlm.errors import MissingInputError, ValidationError

from util import gapped_two_variable_design, stacked_adjacency, write_lines


def two_var_design(p=2, r=1):
    return StudyDesign(2, ((1, 23), (16, 23)), p, r)


class TestLoadObservations:
    def test_two_rows(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "variable,time,unit,z,v", ["1,1,a,0.5,0.1", "1,1,b,0.7,0.2"])
        design = StudyDesign(1, ((1, 1),), 1, 1)
        out = load_observations(obs_file, design)
        assert out.n == 2

    def test_zero_variance_rejected(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "variable,time,unit,z,v", ["1,1,a,0.5,0.0"])
        with pytest.raises(ValidationError, match="nonpositive variance"):
            load_observations(obs_file, StudyDesign(1, ((1, 1),), 1, 1))

    def test_duplicate_triple_rejected(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        write_lines(
            obs_file, "variable,time,unit,z,v", ["1,1,a,0.5,0.1", "1,1,a,0.6,0.1"]
        )
        with pytest.raises(ValidationError, match=r"duplicate observation \(1, 1, 'a'\)"):
            load_observations(obs_file, StudyDesign(1, ((1, 1),), 1, 1))

    def test_outside_window_rejected(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "variable,time,unit,z,v", ["2,3,a,0.5,0.1"])
        with pytest.raises(ValidationError, match="outside the window"):
            load_observations(obs_file, two_var_design())

    def test_staggered_windows_hand_tally(self, tmp_path):
        # two variables on staggered windows; expected per-t counts tallied by hand
        design = two_var_design()
        units = ["a", "b", "c"]
        lines = []
        for t in range(1, 24):
            for u in units:
                lines.append(f"1,{t},{u},0.1,0.01")
        for t in range(16, 24):
            for u in units[:2]:
                lines.append(f"2,{t},{u},0.2,0.02")
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "variable,time,unit,z,v", lines)
        out = load_observations(obs_file, design)
        counts = Counter(o.time for o in out.observations)
        for t in range(1, 16):
            assert counts[t] == 3
        for t in range(16, 24):
            assert counts[t] == 5
        assert out.n == 23 * 3 + 8 * 2
        assert sum(counts.values()) == out.n

    def test_line_numbers_count_blank_lines(self, tmp_path):
        # two blank lines after the header put the bad z of the third row on line 6
        obs_file = tmp_path / "obs.csv"
        write_lines(
            obs_file,
            "variable,time,unit,z,v",
            ["", "", "1,1,a,0.5,0.1", "1,1,b,0.7,0.2", "1,1,c,x,0.1"],
        )
        with pytest.raises(ValidationError, match=r"obs\.csv:6: 'x' is not a finite number"):
            load_observations(obs_file, StudyDesign(1, ((1, 1),), 1, 1))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_observations(tmp_path / "nope.csv", StudyDesign(1, ((1, 1),), 1, 1))

    def test_bad_header(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "var,time,unit,z,v", ["1,1,a,0.5,0.1"])
        with pytest.raises(ValidationError, match="expected header"):
            load_observations(obs_file, StudyDesign(1, ((1, 1),), 1, 1))


class TestBuildAdjacency:
    def test_single_edge(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", ["a,b"])
        graph = build_adjacency(edge_file, ["a", "b"])
        assert np.array_equal(graph.adjacency(), [[0, 1], [1, 0]])

    def test_empty_edge_file(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", [])
        graph = build_adjacency(edge_file, ["a", "b", "c"])
        assert np.array_equal(graph.adjacency(), np.zeros((3, 3)))

    def test_four_cycle_row_sums(self, tmp_path):
        # hand adjacency oracle: every unit in a 4-cycle has exactly 2 neighbours
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", ["a,b", "b,c", "c,d", "d,a"])
        graph = build_adjacency(edge_file, ["a", "b", "c", "d"])
        a = graph.adjacency()
        assert np.array_equal(a.sum(axis=1), [2, 2, 2, 2])
        assert np.array_equal(a, a.T)

    def test_self_loop_rejected(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", ["a,a"])
        with pytest.raises(ValidationError, match="self-loop"):
            build_adjacency(edge_file, ["a", "b"])

    def test_unknown_unit_rejected(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", ["a,z"])
        with pytest.raises(ValidationError, match="unknown unit 'z'"):
            build_adjacency(edge_file, ["a", "b"])

    def test_unknown_unit_after_blank_line_is_located(self, tmp_path):
        edge_file = tmp_path / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", ["a,b", "", "b,z"])
        with pytest.raises(ValidationError, match=r"edges\.csv:4: unknown unit 'z'"):
            build_adjacency(edge_file, ["a", "b"])

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_irreflexive(self, tmp_path_factory, pairs):
        tmp = tmp_path_factory.mktemp("adj")
        units = [f"u{i}" for i in range(8)]
        edge_file = tmp / "edges.csv"
        write_lines(edge_file, "unit_a,unit_b", [f"u{i},u{j}" for i, j in pairs])
        a = build_adjacency(edge_file, units).adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) <= {0.0, 1.0}


class TestStackedAdjacency:
    def test_matches_pairwise_oracle(self):
        # every pair of rows: adjacent iff same variable and an edge joins the units
        design_set = gapped_two_variable_design(30, r=2, seed=3)
        edges = design_set.graph.edges
        for t in (1, 2):
            layout = design_set.layout[t]
            oracle = np.array(
                [
                    [float(la == lb and (min(ua, ub), max(ua, ub)) in edges) for lb, ub in layout]
                    for la, ua in layout
                ]
            )
            assert np.array_equal(stacked_adjacency(design_set, t), oracle)
            rows, cols = design_set.edge_index(t)
            assert rows.size == int(oracle.sum()) // 2
            assert np.all(oracle[rows, cols] == 1.0)


class TestApplyTransform:
    def test_identity(self):
        assert apply_transform(0.3, 0.01, TransformSpec("identity")) == (0.3, 0.01)

    def test_logit_delta_formula(self):
        z, v = apply_transform(0.5, 0.01, TransformSpec("logit"))
        assert z == pytest.approx(0.0, abs=1e-15)
        assert v == pytest.approx(0.16, abs=1e-15)

    def test_logit_monte_carlo_oracle(self):
        # the first-order formula must match simulation in its small-variance
        # regime: logit of Normal(0.5, 1e-4) draws
        rng = np.random.default_rng(7)
        draws = rng.normal(0.5, math.sqrt(1e-4), size=400_000)
        mc_var = np.var(np.log(draws / (1 - draws)))
        _, v = apply_transform(0.5, 1e-4, TransformSpec("logit"))
        assert v == pytest.approx(mc_var, rel=0.02)

    def test_log_delta_formula(self):
        z, v = apply_transform(2.0, 0.04, TransformSpec("log"))
        assert z == pytest.approx(math.log(2.0), abs=1e-15)
        assert v == pytest.approx(0.01, abs=1e-15)

    def test_log_monte_carlo_oracle(self):
        rng = np.random.default_rng(8)
        draws = rng.normal(2.0, math.sqrt(4e-4), size=400_000)
        mc_var = np.var(np.log(draws))
        _, v = apply_transform(2.0, 4e-4, TransformSpec("log"))
        assert v == pytest.approx(mc_var, rel=0.02)

    def test_domain_violations(self):
        with pytest.raises(ValidationError, match="got 1.5"):
            apply_transform(1.5, 0.01, TransformSpec("logit"))
        with pytest.raises(ValidationError, match="got -2.0"):
            apply_transform(-2.0, 0.01, TransformSpec("log"))

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-8, 1.0))
    @settings(max_examples=100)
    def test_logit_roundtrip(self, w, s):
        z, _ = apply_transform(w, s, TransformSpec("logit"))
        assert TransformSpec("logit").inverse(z) == pytest.approx(w, abs=1e-12)

    @given(st.floats(1e-6, 1e6), st.floats(1e-8, 1.0))
    @settings(max_examples=100)
    def test_log_roundtrip(self, w, s):
        z, _ = apply_transform(w, s, TransformSpec("log"))
        assert TransformSpec("log").inverse(z) == pytest.approx(w, rel=1e-12)


def write_covariates(path, rows, p):
    header = "variable,time,unit," + ",".join(f"x{j}" for j in range(1, p + 1))
    write_lines(path, header, rows)


class TestAssembleDesign:
    def test_intercept_only(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},1" for u in "abc"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        ds = assemble_design(cov, design, empty_edges(tmp_path))
        assert ds.matrices[1].shape == (3, 1)
        assert np.all(ds.matrices[1] == 1.0)

    def test_seven_column_shape(self, tmp_path):
        # two variables, intercept, indicator, coordinates, a within-time
        # identified time interaction, and gender-by-coordinate interactions
        rng = np.random.default_rng(0)
        units = [f"s{i}" for i in range(10)]
        coords = {u: rng.normal(size=2) for u in units}
        rows = []
        T = 3
        for t in range(1, T + 1):
            for ell in (1, 2):
                for u in units:
                    c1, c2 = coords[u]
                    ind = 1.0 if ell == 2 else 0.0
                    time_effect = np.sin(t * (c1 + c2))  # varies within every t
                    vals = [1.0, ind, c1, c2, time_effect, ind * c1, ind * c2]
                    rows.append(f"{ell},{t},{u}," + ",".join(f"{v}" for v in vals))
        cov = tmp_path / "cov.csv"
        write_covariates(cov, rows, p=7)
        design = StudyDesign(2, ((1, T), (1, T)), 7, 2)
        ds = assemble_design(cov, design, empty_edges(tmp_path))
        for t in range(1, T + 1):
            assert ds.matrices[t].shape == (20, 7)

    def test_raw_time_column_is_rank_deficient(self, tmp_path):
        # a raw time covariate is constant within t, hence collinear with the
        # intercept; the full-rank contract rejects it
        units = ["a", "b", "c"]
        rows = [f"1,{t},{u},1,{t}" for t in (1, 2) for u in units]
        cov = tmp_path / "cov.csv"
        write_covariates(cov, rows, p=2)
        design = StudyDesign(1, ((1, 2),), 2, 1)
        with pytest.raises(ValidationError, match="rank-deficient.*t=1"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_duplicated_column_rank_error(self, tmp_path):
        rng = np.random.default_rng(1)
        units = ["a", "b", "c", "d"]
        rows = []
        for t in (1, 2):
            for u in units:
                x = rng.normal()
                rows.append(f"1,{t},{u},1,{x},{x}")
        cov = tmp_path / "cov.csv"
        write_covariates(cov, rows, p=3)
        design = StudyDesign(1, ((1, 2),), 3, 1)
        with pytest.raises(ValidationError, match="rank-deficient"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_missing_rows_rejected(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, ["1,1,a,1", "1,1,b,1"], p=1)  # nothing at t=2
        design = StudyDesign(1, ((1, 2),), 1, 1)
        with pytest.raises(ValidationError, match="missing covariate rows.*t=2"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_no_intercept_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},{rng.normal()}" for u in "abc"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        with pytest.raises(ValidationError, match="intercept"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_rank_too_large_rejected(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},1" for u in "abc"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 3)
        with pytest.raises(ValidationError, match="exceeds min over t"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_unknown_unit_in_observations(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},1" for u in "ab"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        ds = assemble_design(cov, design, empty_edges(tmp_path))
        obs_file = tmp_path / "obs.csv"
        write_lines(obs_file, "variable,time,unit,z,v", ["1,1,zz,0.5,0.1"])
        with pytest.raises(ValidationError, match="not a prediction location"):
            load_observations(obs_file, design, design_set=ds)

    def test_value_fault_reported_before_a_later_short_row(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, ["1,1,a,x", "1,1,b"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        with pytest.raises(ValidationError, match=r"cov\.csv:2: 'x' is not a finite number"):
            assemble_design(cov, design, empty_edges(tmp_path))

    def test_units_in_first_seen_order(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, ["1,1,b,1", "1,1,a,1", "1,1,c,1"], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        assert assemble_design(cov, design, empty_edges(tmp_path)).graph.units == ("b", "a", "c")


# tracemalloc peak of reading a 20,000-row design (p = 3); holding every
# parsed row before checking it, with the covariate file parsed twice, peaked
# at 20.7 MB, and reading it row by row once peaks at 7.4 MB
DESIGN_READ_PEAK_BYTES = 12e6


def test_design_read_memory(tmp_path):
    import tracemalloc

    units, T = 1000, 20
    rng = np.random.default_rng(66)
    x = rng.normal(size=(T, units, 2))
    write_covariates(
        tmp_path / "cov.csv",
        [f"1,{t},u{i},1,{x[t - 1, i, 0]},{x[t - 1, i, 1]}"
         for t in range(1, T + 1) for i in range(units)],
        p=3,
    )
    write_lines(tmp_path / "edges.csv", "unit_a,unit_b", [f"u{i},u{i + 1}" for i in range(units - 1)])
    design = StudyDesign(1, ((1, T),), 3, 5)
    tracemalloc.start()
    try:
        design_set = assemble_design(tmp_path / "cov.csv", design, tmp_path / "edges.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(design_set.N_t(t) for t in range(1, T + 1)) == 20_000
    assert peak < DESIGN_READ_PEAK_BYTES


def empty_edges(tmp_path):
    edge_file = tmp_path / "edges_empty.csv"
    if not edge_file.exists():
        write_lines(edge_file, "unit_a,unit_b", [])
    return edge_file


class TestAlignment:
    def test_alignment_orders_canonically(self, tmp_path):
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},1" for u in ("b", "a", "c")], p=1)
        design = StudyDesign(1, ((1, 1),), 1, 1)
        ds = assemble_design(cov, design, empty_edges(tmp_path))
        obs_file = tmp_path / "obs.csv"
        # file order deliberately scrambled relative to the unit order
        write_lines(obs_file, "variable,time,unit,z,v", ["1,1,c,3.0,0.1", "1,1,b,1.0,0.2"])
        obs = load_observations(obs_file, design, design_set=ds)
        aligned = align_observations(ds, obs)
        # canonical order is first-seen unit order: b (index 0), then c (index 2)
        assert aligned.offsets == {1: (0, 2)}
        assert aligned.obs_idx.tolist() == [0, 2]
        assert aligned.z.tolist() == [1.0, 3.0]
        assert aligned.v.tolist() == [0.2, 0.1]

    def test_duplicate_cell_in_code_built_observations_refused(self, tmp_path):
        # load_observations refuses a second observation of one cell; a set
        # built in code must not let the last one win (n would read 2, the
        # aligned time 1 cell)
        cov = tmp_path / "cov.csv"
        write_covariates(cov, [f"1,1,{u},1" for u in "abcd"], p=1)
        edges = tmp_path / "edges.csv"
        write_lines(edges, "unit_a,unit_b", ["a,b", "b,c", "c,d", "d,a"])
        design = StudyDesign(1, ((1, 1),), 1, 1)
        ds = assemble_design(cov, design, edges)
        # a cell outside the prediction locations is refused too: an unknown unit, a
        # time past T
        for second, says in (
            (Observation(1, 1, "a", 2.0, 0.1), r"duplicate observation \(1, 1, 'a'\)"),
            (Observation(1, 1, "e", 2.0, 0.1),
             r"observation \(1, 1, 'e'\) is not a prediction location"),
            (Observation(1, 2, "a", 2.0, 0.1),
             r"observation \(1, 2, 'a'\) is not a prediction location"),
        ):
            obs = ObservationSet(design, (Observation(1, 1, "a", 1.0, 0.1), second))
            with pytest.raises(ValidationError, match=says):
                align_observations(ds, obs)
