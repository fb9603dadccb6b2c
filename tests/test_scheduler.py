import numpy as np
import pytest

from spheretrain.errors import DomainError
from spheretrain.scheduler import Phase, StageState, css_score, step_scheduler


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestCssScore:
    def test_perfect_alignment(self):
        rng = rng_for(0)
        w = unit_rows(rng, 5, 8).T
        labels = np.array([0, 3, 3, 1])
        feats = w[:, labels].T
        assert css_score(feats, w, labels) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_features(self):
        w = np.eye(4)[:, :2]
        feats = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert css_score(feats, w, [0, 1]) == 0.0

    def test_random_features_match_inverse_dimension(self):
        # E[cos^2] = 1/d for an isotropic direction against any fixed one
        d = 128
        rng = rng_for(1)
        feats = unit_rows(rng, 100_000, d)
        w = unit_rows(rng, 4, d).T
        labels = rng.integers(0, 4, size=100_000)
        score = css_score(feats, w, labels)
        assert abs(score - 1.0 / d) < 1.2e-4  # 3 sigma Monte-Carlo bound

    def test_normalizes_defensively(self):
        feats = np.array([[10.0, 0.0]])
        w = np.array([[2.0], [0.0]])
        assert css_score(feats, w, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            css_score(np.zeros((0, 4)), np.eye(4), [])


class TestStepScheduler:
    def run_stream(self, scores, delta1=0.2, delta2=0.35, beta=0.9):
        state = StageState()
        trace = []
        for s in scores:
            step_scheduler(state, s, delta1, delta2, beta)
            trace.append(state.phase)
        return state, trace

    def test_ema_initializes_to_first_score(self):
        state = StageState()
        step_scheduler(state, 0.123, 0.9, 0.95, 0.9)
        assert state.css_smoothed == 0.123
        assert state.css_raw == 0.123

    def test_ema_is_convex_combination(self):
        state = StageState()
        rng = rng_for(2)
        seen = []
        for _ in range(100):
            s = float(rng.uniform())
            seen.append(s)
            step_scheduler(state, s, 1.0, 1.0, 0.9)
            assert min(seen) - 1e-12 <= state.css_smoothed <= max(seen) + 1e-12

    def test_constant_half_reaches_refinement_within_bound(self):
        # with s = 0.5 forever, each phase exits within
        # ceil(log_beta((0.5 - 0.35)/0.5)) + 2 steps of being entered
        beta = 0.9
        bound = int(np.ceil(np.log(0.15 / 0.5) / np.log(beta))) + 2
        state = StageState()
        entered = {Phase.ALIGNMENT: 0}
        for step in range(1, 200):
            before = state.phase
            step_scheduler(state, 0.5, 0.2, 0.35, beta)
            if state.phase is not before:
                entered[state.phase] = step
                assert step - entered[before] <= bound
            if state.phase is Phase.REFINEMENT:
                break
        assert state.phase is Phase.REFINEMENT

    def test_zero_stream_never_advances(self):
        state, trace = self.run_stream([0.0] * 500)
        assert state.phase is Phase.ALIGNMENT
        assert set(trace) == {Phase.ALIGNMENT}

    def test_quarter_stream_stops_at_stabilization(self):
        state, trace = self.run_stream([0.25] * 500)
        assert Phase.STABILIZATION in trace
        assert state.phase is Phase.STABILIZATION
        assert Phase.REFINEMENT not in trace

    def test_single_transition_per_step(self):
        state = StageState()
        step_scheduler(state, 0.99, 0.2, 0.35, 0.9)
        assert state.phase is Phase.STABILIZATION
        step_scheduler(state, 0.99, 0.2, 0.35, 0.9)
        assert state.phase is Phase.REFINEMENT

    def test_phases_never_regress(self):
        rng = rng_for(3)
        state = StageState()
        last = 0
        for _ in range(1000):
            step_scheduler(state, float(rng.uniform()), 0.3, 0.6, 0.8)
            assert list(Phase).index(state.phase) >= last
            last = list(Phase).index(state.phase)

    def test_refinement_is_terminal(self):
        state = StageState(phase=Phase.REFINEMENT)
        step_scheduler(state, 1.0, 0.2, 0.35, 0.9)
        assert state.phase is Phase.REFINEMENT
