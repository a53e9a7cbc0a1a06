import math

import numpy as np
import pytest

from bpre.env import ConfigError, ResourceCapError, parse_env_config, state_mean
from bpre.simulate import (DOMAIN_QUENCHED, DOMAIN_SIMULATE, DOMAIN_SN,
                           DOMAIN_TRAJ, INT64_SAFE, EnvTables, SimConfig,
                           _binomial_vector, _check_population_cap,
                           _generation, _state_rows, block_records, offspring,
                           simulate_block, simulate_trajectory, stream)
from brute import quenched_martingale_check
from models import BINARY, DOUBLING, MIXED, binary_env

THREE_POINT = {"model": "generic",
               "states": [{"label": "mix", "mass": 1.0,
                           "offspring": {"1": 0.3, "2": 0.5, "3": 0.2}}]}


class CountingRng:
    """A Generator that counts the standard normals drawn from it, the
    Gaussian-approximate binomial draws; every other call goes through."""

    def __init__(self, rng):
        self.rng = rng
        self.normals = 0

    def standard_normal(self, size):
        self.normals += size
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def reference_trajectory(env, cfg, rng):
    """The per-generation loop simulate_trajectory must replay as a block of
    one: one offspring() call per generation on a length-1 float64 array, on
    the same stream. Returns the (Z, S, logW) records, the state labels in
    generation order and the approximation flag, which is whether any
    Gaussian draw was made: whether the loop drew a standard normal."""
    tables = EnvTables(env)
    states = tables.pick_states(rng.random(cfg.n)).tolist()
    log_means = tables.X.tolist()
    counted = CountingRng(rng)
    z, s = np.ones(1), 0.0
    records = [(1.0, 0.0, 0.0)]
    for i in states:
        z = offspring(z, tables.samplers[i], counted)
        s = s + log_means[i]
        _check_population_cap(z[0])
        records.append((float(z[0]), s, math.log(z[0]) - s))
    labels = tuple(tables.labels[i] for i in states)
    return records, labels, counted.normals > 0


class TestStream:
    def test_streams_are_reproducible(self):
        a = stream(42, DOMAIN_SN, 0).random(8)
        b = stream(42, DOMAIN_SN, 0).random(8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_domains_and_indices(self):
        base = stream(42, DOMAIN_SN, 0).random(8)
        for other in (stream(42, DOMAIN_TRAJ, 0), stream(42, DOMAIN_SN, 1),
                      stream(43, DOMAIN_SN, 0), stream(42, DOMAIN_QUENCHED, 0),
                      stream(42, DOMAIN_SIMULATE, 0)):
            assert not np.array_equal(base, other.random(8))

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            stream(-1, DOMAIN_SN, 0)
        with pytest.raises(ValueError):
            stream(1 << 64, DOMAIN_SN, 0)
        stream((1 << 64) - 1, DOMAIN_SN, 0)  # top of the range is fine


class TestEnvSampling:
    def test_sequence_length_and_labels(self):
        tables = EnvTables(binary_env())
        states = tables.pick_states(stream(1, DOMAIN_SN, 0).random(50))
        assert len(states) == 50
        assert tables.labels == ("p=0.25", "p=0.75")
        assert set(states.tolist()) <= {0, 1}

    def test_masses_respected(self):
        # unbalanced masses: the frequent state should dominate
        env = parse_env_config({"model": "binary",
                                "support": [{"p": 0.25, "mass": 0.9},
                                            {"p": 0.75, "mass": 0.1}]})
        states = EnvTables(env).pick_states(stream(3, DOMAIN_SN, 0).random(20000))
        freq = np.count_nonzero(states == 0) / 20000
        assert abs(freq - 0.9) < 0.01

    def test_env_tables_inverse_cdf_boundaries(self):
        tables = EnvTables(binary_env())
        idx = tables.pick_states(np.array([0.0, 0.499999, 0.5, 0.999999]))
        assert idx.tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_pick_states_is_the_clamped_searchsorted(self, k):
        # the stored masses are normalised, but their cumulative sums may
        # round below 1 (seven masses of 1/7 end at 1 - 2^-52); thresholds
        # scaled by 1 - 1e-13 stand in for that at every k: uniforms at or
        # above cum[-1] must still map to the last state
        masses = [(j + 1) / (k * (k + 1) / 2) for j in range(k - 1)]
        masses.append(1.0 - math.fsum(masses))
        env = parse_env_config({"model": "generic", "states": [
            {"label": f"s{j}", "mass": mass, "offspring": {"1": 0.5, "2": 0.5}}
            for j, mass in enumerate(masses)]})
        tables = EnvTables(env)
        tables.cum = tables.cum * (1.0 - 1e-13)
        cum = tables.cum
        assert cum[-1] < 1.0
        top = np.linspace(cum[-1], 1.0, 5)[:-1]
        u = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), top,
                            [np.nextafter(1.0, 0.0)]])
        expect = np.minimum(np.searchsorted(cum, u, side="right"), k - 1)
        assert tables.pick_states(u).tolist() == expect.tolist()
        assert tables.pick_states(top).tolist() == [k - 1] * top.size

    @pytest.mark.parametrize("masses", [
        [0.5, 0.3, 0.2 - 9e-13],  # cum[-1] < 1
        [0.5, 0.5 + 4.5e-13, 4.5e-13],  # cum[1] > 1
    ])
    def test_pick_probs_is_the_law_pick_states_implies(self, masses):
        # cum[:-1] is clipped at 1 and the last state takes the remainder
        env = parse_env_config({"model": "generic", "states": [
            {"label": f"s{j}", "mass": mass, "offspring": {"1": 0.5, "2": 0.5}}
            for j, mass in enumerate(masses)]})
        tables = EnvTables(env)
        edges = [min(float(c), 1.0) for c in tables.cum[:-1]]
        assert tables.pick_probs.tolist() == [
            edges[0], edges[1] - edges[0], 1.0 - edges[1]]
        assert math.fsum(tables.pick_probs) == pytest.approx(1.0, abs=1e-15)


def first_sampler(env):
    return EnvTables(env).samplers[0]


class TestOffspring:
    """The float64 array form of offspring(), the step every route takes."""

    def test_deterministic_doubling(self):
        sampler = first_sampler(parse_env_config(DOUBLING))
        rng = stream(0, DOMAIN_SIMULATE, 0)
        z = np.ones(3)
        for _ in range(10):
            z = offspring(z, sampler, rng)
        assert z.tolist() == [1024.0] * 3

    def test_zero_stays_zero(self):
        sampler = first_sampler(binary_env())
        out = offspring(np.zeros(3), sampler, stream(0, DOMAIN_SIMULATE, 0))
        assert out.tolist() == [0.0] * 3

    def test_binary_step_bounds(self):
        # z individuals each give 1 or 2 children: total in [z, 2z]
        sampler = first_sampler(binary_env())
        out = offspring(np.full(200, 100.0), sampler,
                        stream(5, DOMAIN_SIMULATE, 0))
        assert np.all((100 <= out) & (out <= 200))
        assert np.array_equal(out, np.round(out))

    def test_binary_step_matches_binomial_law(self):
        # totals are z + Bin(z, p2); check the empirical mean tightly
        sampler = first_sampler(binary_env())  # p2 = 0.75
        z, reps = 50, 20000
        draws = offspring(np.full(reps, float(z)), sampler,
                          stream(7, DOMAIN_SIMULATE, 0)) - z
        sd = math.sqrt(z * 0.75 * 0.25)
        assert abs(draws.mean() - z * 0.75) < 4 * sd / math.sqrt(reps)

    def test_chain_step_total_and_range(self):
        env = parse_env_config(THREE_POINT)
        state = env.states[0][0]
        sampler = first_sampler(env)
        z, reps = 40, 20000
        totals = offspring(np.full(reps, float(z)), sampler,
                           stream(11, DOMAIN_SIMULATE, 0))
        assert np.all((z <= totals) & (totals <= 3 * z))
        m = state_mean(state)  # 1.9
        sd_one = math.sqrt(0.3 * 1 + 0.5 * 4 + 0.2 * 9 - m * m)
        assert abs(totals.mean() - z * m) < 4 * sd_one * math.sqrt(z) / math.sqrt(reps)

    def test_approx_path_draws_gaussian_and_stays_in_range(self):
        sampler = first_sampler(binary_env())
        rng = CountingRng(stream(13, DOMAIN_SIMULATE, 0))
        z = 2.0 ** 70
        out = offspring(np.array([z]), sampler, rng)
        assert rng.normals == 1
        assert z <= out[0] <= 2 * z
        # approximate mean still lands near z * (1 + p2)
        assert abs(out[0] - z * 1.75) < 5 * math.sqrt(z)

    def test_exact_path_draws_no_gaussian(self):
        sampler = first_sampler(binary_env())
        rng = CountingRng(stream(13, DOMAIN_SIMULATE, 0))
        offspring(np.array([1000.0]), sampler, rng)
        offspring(np.array([float(INT64_SAFE)]), sampler, rng)
        assert rng.normals == 0

    def test_deterministic_state_consumes_no_randomness(self):
        sampler = first_sampler(parse_env_config(DOUBLING))
        rng = stream(17, DOMAIN_SIMULATE, 0)
        before = rng.bit_generator.state["state"]["counter"].copy()
        out = offspring(np.array([123.0]), sampler, rng)
        after = rng.bit_generator.state["state"]["counter"]
        assert out.tolist() == [246.0]
        assert list(before) == list(after)

    def test_deterministic_vector_returns_its_input_without_draws(self):
        # {1: 1.0} has one family size of positive mass: an empty chain
        sampler = first_sampler(parse_env_config({"model": "generic", "states": [
            {"label": "one", "mass": 1.0, "offspring": {"1": 1.0}}]}))
        assert sampler == ((), 1)
        rng = stream(19, DOMAIN_SIMULATE, 0)
        before = rng.bit_generator.state["state"]["counter"].copy()
        z = np.array([1.0, 7.0, 2.0 ** 40])
        out = offspring(z, sampler, rng)
        assert out.dtype == np.float64
        assert out.tolist() == z.tolist()
        after = rng.bit_generator.state["state"]["counter"]
        assert list(before) == list(after)


def scalar_binomial(trials, prob, rng):
    """Bin(t, prob) draws for a list of trial counts, written out one at a
    time: no draw for a degenerate prob; else rng.binomial on each count up
    to INT64_SAFE, in list order, then for each count above it mean + sd *
    one standard normal, rounded and clamped to [0, t]. The counts are
    Python ints, or floats for the float64 form, whose arithmetic then
    rounds as float64 does."""
    if prob <= 0.0:
        return [0 * t for t in trials]
    if prob >= 1.0:
        return list(trials)
    out = [type(t)(rng.binomial(int(t), prob)) if t <= INT64_SAFE else None
           for t in trials]
    for i, t in enumerate(trials):
        if t > INT64_SAFE:
            mean = float(t) * prob
            draw = round(mean + math.sqrt(mean * (1.0 - prob))
                         * rng.standard_normal())
            out[i] = type(t)(min(max(draw, 0), t))
    return out


def scalar_offspring(zs, sampler, rng):
    """The offspring law of a list of populations, stated independently of
    the array code: one conditional binomial per chain link over ascending
    family sizes."""
    chain, k_last = sampler
    remaining, total = list(zs), [0] * len(zs)
    for k, cond_p in chain:
        c = scalar_binomial(remaining, cond_p, rng)
        total = [t + k * ci for t, ci in zip(total, c)]
        remaining = [r - ci for r, ci in zip(remaining, c)]
    return [t + k_last * r for t, r in zip(total, remaining)]


class TestOffspringForms:
    """The int64 and float64 array forms of offspring() draw alike, and each
    replays the scalar statement of the law. Only the float64 form reaches
    the Gaussian draws past INT64_SAFE: an int64 population there would
    overflow at its first doubling."""

    PMFS = [{"1": 0.25, "2": 0.75},             # {1, 2}: one chain link
            {"1": 0.3, "2": 0.5, "3": 0.2},     # conditional-binomial chain
            {"2": 1.0},                         # deterministic
            {"1": 0.1, "2": 0.0, "4": 0.9},     # zero-mass chain entry
            {"1": 0.5, "3": 0.5}]               # one chain link, gap in sizes
    # exact draws; an int64 population holds four times the last
    ZS = [1, 7, 50, 51, 10 ** 6, 3 * 10 ** 9, 2 ** 50, 2 ** 60]
    # the exact sampler's largest count, the next double above it, and 2^70
    GAUSSIAN_ZS = [INT64_SAFE, INT64_SAFE + 1024, 2 ** 70]

    @staticmethod
    def sampler(pmf):
        env = parse_env_config({"model": "generic", "states": [
            {"label": "s", "mass": 1.0, "offspring": pmf}]})
        return EnvTables(env).samplers[0]

    @pytest.mark.parametrize("pmf", PMFS)
    @pytest.mark.parametrize("z", ZS)
    def test_int64_form_replays_the_scalar_law_draw_for_draw(self, pmf, z):
        sampler = self.sampler(pmf)
        rng_vec, rng_ref = stream(31, DOMAIN_SIMULATE, 0), stream(31, DOMAIN_SIMULATE, 0)
        vec = offspring(np.array([z], dtype=np.int64), sampler, rng_vec)
        [ref] = scalar_offspring([z], sampler, rng_ref)
        assert vec.dtype == np.int64
        assert int(vec[0]) == ref
        assert rng_vec.random() == rng_ref.random()

    @pytest.mark.parametrize("pmf", PMFS)
    @pytest.mark.parametrize("z", ZS + GAUSSIAN_ZS)
    def test_float64_form_replays_the_scalar_law_draw_for_draw(self, pmf, z):
        sampler = self.sampler(pmf)
        rng_vec, rng_ref = stream(31, DOMAIN_SIMULATE, 0), stream(31, DOMAIN_SIMULATE, 0)
        vec = offspring(np.array([float(z)]), sampler, rng_vec)
        [ref] = scalar_offspring([float(z)], sampler, rng_ref)
        assert vec.dtype == np.float64
        assert vec[0] == ref
        assert rng_vec.random() == rng_ref.random()

    @pytest.mark.parametrize("pmf", PMFS)
    def test_float64_form_draws_exact_counts_before_gaussian_ones(self, pmf):
        # one array mixes exact and Gaussian draws: in each binomial call the
        # exact draws come first, in array order, then the Gaussian ones
        sampler = self.sampler(pmf)
        zs = [2.0 ** 70, 7.0, INT64_SAFE + 1024.0, 1e6, float(INT64_SAFE), 51.0]
        rng_vec, rng_ref = stream(37, DOMAIN_SIMULATE, 0), stream(37, DOMAIN_SIMULATE, 0)
        vec = offspring(np.array(zs), sampler, rng_vec)
        assert vec.tolist() == scalar_offspring(zs, sampler, rng_ref)
        assert rng_vec.random() == rng_ref.random()

    @pytest.mark.parametrize("pmf", PMFS)
    def test_float64_and_int64_forms_agree_on_one_array(self, pmf):
        # populations and offspring below 2^53, where float64 is exact
        sampler = self.sampler(pmf)
        zs = [z for z in self.ZS if z <= 2 ** 50]
        rng_int, rng_float = stream(37, DOMAIN_SIMULATE, 0), stream(37, DOMAIN_SIMULATE, 0)
        ints = offspring(np.array(zs, dtype=np.int64), sampler, rng_int)
        floats = offspring(np.array(zs, dtype=np.float64), sampler, rng_float)
        assert ints.dtype == np.int64 and floats.dtype == np.float64
        assert floats.tolist() == [float(v) for v in ints.tolist()]
        assert rng_int.random() == rng_float.random()

    @pytest.mark.parametrize("prob", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("dtype, trials", [
        (np.int64, [1, 50, 10 ** 6]),
        (np.float64, [1, 50, 10 ** 6, INT64_SAFE + 1024, 2 ** 70])])
    def test_binomial_draws_keep_the_input_dtype(self, dtype, trials, prob):
        trials = np.array(trials, dtype=dtype)
        out = _binomial_vector(trials, prob, stream(41, DOMAIN_SIMULATE, 0))
        assert out.dtype == dtype
        assert np.all((0 <= out) & (out <= trials))

    @pytest.mark.parametrize("prob", [1e-300, 1e-12, 0.5, 1.0 - 2.0 ** -53])
    def test_gaussian_draws_stay_within_their_trials(self, prob):
        # the rounded Gaussian is clamped to [0, trials] at either end
        trials = np.full(1000, INT64_SAFE + 1024.0)
        rng = CountingRng(stream(43, DOMAIN_SIMULATE, 0))
        out = _binomial_vector(trials, prob, rng)
        assert rng.normals == 1000
        assert np.all((0.0 <= out) & (out <= trials))
        # within 4 standard errors and one float64 spacing at 2^62
        assert abs(out.mean() - trials[0] * prob) < 4 * math.sqrt(
            trials[0] * prob * (1.0 - prob)) / math.sqrt(1000) + 1024.0


class TestTrajectory:
    def test_decomposition_is_consistent(self):
        env = binary_env()
        traj = simulate_trajectory(env, SimConfig(n=30, seed=9))
        by_label = {s.label: math.log(state_mean(s)) for s, _ in env.states}
        s = 0.0
        for k, rec in enumerate(traj.records):
            if k > 0:
                s += by_label[traj.states[k - 1]]
            # S matches log Pi recomputed from state means
            assert rec.S == pytest.approx(s, abs=1e-12)
            # logW = log Z - S
            assert rec.logW == pytest.approx(math.log(rec.Z) - rec.S, abs=1e-12)

    def test_path_starts_at_one(self):
        traj = simulate_trajectory(binary_env(), SimConfig(n=5, seed=1))
        assert traj.records[0].Z == 1
        assert traj.records[0].S == 0.0
        assert traj.records[0].logW == 0.0
        assert len(traj.records) == 6

    def test_population_never_shrinks_below_survivors(self):
        traj = simulate_trajectory(binary_env(), SimConfig(n=40, seed=2))
        zs = [rec.Z for rec in traj.records]
        assert all(zs[i + 1] >= zs[i] for i in range(len(zs) - 1))

    def test_deterministic_given_seed(self):
        a = simulate_trajectory(binary_env(), SimConfig(n=25, seed=77))
        b = simulate_trajectory(binary_env(), SimConfig(n=25, seed=77))
        assert a == b
        c = simulate_trajectory(binary_env(), SimConfig(n=25, seed=78))
        assert a != c

    def test_extinction_refused_by_default(self):
        env = parse_env_config({
            "model": "generic",
            "states": [{"label": "risky", "mass": 1.0,
                        "offspring": {"0": 0.5, "2": 0.5}}]})
        with pytest.raises(ConfigError, match="p0 > 0"):
            simulate_trajectory(env, SimConfig(n=5, seed=0))

    def test_population_cap_raises(self):
        # the cap is 2^512 inclusive: DOUBLING reaches it at n = 512 and
        # passes it at n = 513
        env = parse_env_config(DOUBLING)
        traj = simulate_trajectory(env, SimConfig(n=512, seed=0))
        assert traj.records[-1].Z == 1 << 512
        with pytest.raises(ResourceCapError, match="cap is 512 bits"):
            simulate_trajectory(env, SimConfig(n=513, seed=0))

    def test_doubling_env_keeps_w_at_one(self):
        traj = simulate_trajectory(parse_env_config(DOUBLING),
                                   SimConfig(n=10, seed=0))
        assert traj.records[-1].Z == 1024
        assert all(rec.logW == pytest.approx(0.0, abs=1e-12)
                   for rec in traj.records)

    @pytest.mark.parametrize("config, n", [
        (BINARY, 200), (MIXED, 120), (DOUBLING, 512)])
    def test_replays_the_per_generation_loop(self, config, n):
        env = parse_env_config(config)
        cfg = SimConfig(n=n, seed=13)
        approx = []
        for t in range(8):
            ref_rng = stream(13, DOMAIN_SIMULATE, t)
            records, labels, approx_used = reference_trajectory(env, cfg,
                                                                ref_rng)
            rng = stream(13, DOMAIN_SIMULATE, t)
            traj = simulate_trajectory(env, cfg, rng=rng)
            assert list(traj.records) == records
            assert traj.states == labels
            assert traj.approx_sampling_used == approx_used
            # the same number of draws was taken from the stream
            assert rng.random() == ref_rng.random()
            approx.append(approx_used)
        # every random-model trajectory passes 2^62 and takes Gaussian
        # draws; DOUBLING never draws
        assert approx == [config is not DOUBLING] * 8

    @pytest.mark.parametrize("label, approx", [
        ("chain", True), ("bin", True), ("double", False)])
    def test_flag_read_off_the_one_generation_past_the_limit(self, label,
                                                             approx):
        # In a trajectory whose last generation alone starts above
        # INT64_SAFE, the flag says whether that generation's state draws:
        # the first link of "chain" and the one link of "bin" do, "double"
        # has none.
        env = parse_env_config(MIXED)
        n = 82
        cfg = SimConfig(n=n, seed=13)
        for t in range(400):
            traj = simulate_trajectory(env, cfg,
                                       rng=stream(13, DOMAIN_SIMULATE, t))
            zs = [rec.Z for rec in traj.records]
            if traj.states[-1] == label and zs[-3] <= INT64_SAFE < zs[-2]:
                break
        else:
            pytest.fail(f"no trajectory ends in a {label} generation that "
                        "alone starts above 2^62")
        records, _, ref_approx = reference_trajectory(
            env, cfg, stream(13, DOMAIN_SIMULATE, t))
        assert list(traj.records) == records
        assert traj.approx_sampling_used == ref_approx == approx

    def test_refuses_extinction(self):
        risky = parse_env_config({"model": "generic", "states": [
            {"label": "risky", "mass": 1.0, "offspring": {"0": 0.5, "2": 0.5}}]})
        with pytest.raises(ConfigError, match="p0 > 0"):
            simulate_trajectory(risky, SimConfig(n=120, seed=5))

    def test_replay_raises_at_the_same_generation(self):
        env = parse_env_config(DOUBLING)
        cfg = SimConfig(n=513, seed=13)
        with pytest.raises(ResourceCapError) as ref_err:
            reference_trajectory(env, cfg, stream(13, DOMAIN_SIMULATE, 0))
        with pytest.raises(ResourceCapError) as err:
            simulate_trajectory(env, cfg)
        assert str(err.value) == str(ref_err.value)
        assert "reached 514 bits" in str(err.value)

    def test_annealed_martingale_mean_near_one(self):
        env = binary_env()
        ws = []
        for t in range(2000):
            traj = simulate_trajectory(env, SimConfig(n=12, seed=100),
                                       rng=stream(100, DOMAIN_SIMULATE, t))
            ws.append(math.exp(traj.records[-1].logW))
        mean = sum(ws) / len(ws)
        var = sum((w - mean) ** 2 for w in ws) / (len(ws) - 1)
        stderr = math.sqrt(var / len(ws))
        assert abs(mean - 1.0) < 4 * stderr


class TestBlock:
    @pytest.mark.parametrize("config, n, approx", [
        (BINARY, 200, True), (MIXED, 120, True), (BINARY, 70, False),
        (DOUBLING, 70, False)])
    def test_steps_the_estimators_generation_loop(self, config, n, approx):
        # a block is the estimators' loop on the same stream: the state rows
        # first, then one _generation per row; its flag is true once some
        # population passes 2^62 in a state that draws
        tables = EnvTables(parse_env_config(config))
        rng, ref_rng = stream(3, DOMAIN_SIMULATE, 0), stream(3, DOMAIN_SIMULATE, 0)
        z, states, got = simulate_block(tables, n, 64, rng)
        assert z.shape == (n + 1, 64) and z.dtype == np.float64
        assert states.shape == (n, 64) and states.dtype == np.uint8
        assert z[0].tolist() == [1.0] * 64
        flags = []
        zk = np.ones(64)
        for k, col in enumerate(_state_rows(tables, n, 64, ref_rng)):
            flags.append(_generation(tables, col, zk, ref_rng))
            assert np.array_equal(col, states[k])
            assert np.array_equal(zk, z[k + 1])
        assert got == any(flags) == approx
        assert rng.random() == ref_rng.random()

    def test_records_of_each_trajectory(self):
        # S_k sums the log means of trajectory t's states in generation
        # order, and logW = log Z - S
        env = parse_env_config(MIXED)
        tables = EnvTables(env)
        z, states, _ = simulate_block(tables, 30, 5,
                                      stream(4, DOMAIN_SIMULATE, 0))
        for t in range(5):
            records = block_records(tables, z, states, t)
            assert records[0] == (1.0, 0.0, 0.0)
            s = 0.0
            for k, (zk, sk, wk) in enumerate(records[1:]):
                s += math.log(state_mean(env.states[states[k, t]][0]))
                assert zk == z[k + 1, t]
                assert sk == pytest.approx(s, abs=1e-12)
                assert wk == math.log(zk) - sk


class TestQuenched:
    def test_one_step_ratio_near_one(self):
        env = binary_env()
        states = EnvTables(env).pick_states(stream(21, DOMAIN_SN, 0).random(10))
        report = quenched_martingale_check(env, states, k=5, replicas=20000,
                                           rng=stream(21, DOMAIN_QUENCHED, 0))
        assert abs(report.mean_ratio - 1.0) < 4 * report.stderr

    def test_insufficient_replicas(self):
        env = binary_env()
        states = EnvTables(env).pick_states(stream(1, DOMAIN_SN, 0).random(4))
        with pytest.raises(ValueError, match="insufficient replicas"):
            quenched_martingale_check(env, states, k=1, replicas=10,
                                      rng=stream(1, DOMAIN_QUENCHED, 0))

    def test_k_out_of_range(self):
        env = binary_env()
        states = EnvTables(env).pick_states(stream(1, DOMAIN_SN, 0).random(4))
        with pytest.raises(ValueError):
            quenched_martingale_check(env, states, k=4, replicas=200,
                                      rng=stream(1, DOMAIN_QUENCHED, 0))

    def test_float64_replicas_of_a_population_past_int64(self):
        # Z_65 of a {1,2} state with p = 0.01 is about 2^64, past int64 and
        # past 2^53, so the float64 replicas round at 1e-16 relative.
        env = parse_env_config({"model": "binary",
                                "support": [{"p": 0.01, "mass": 1.0}]})
        report = quenched_martingale_check(env, (0,) * 66, k=65, replicas=1000,
                                           rng=stream(29, DOMAIN_QUENCHED, 0))
        assert abs(report.mean_ratio - 1.0) < 4 * report.stderr

    def test_float64_replicas_hold_totals_past_int64(self):
        # Z_39 = 3^39 is below 2^62, but Z_40 = 3^40 does not fit in int64;
        # the float64 replicas hold 3 * Z_39 to 1e-16 relative.
        env = parse_env_config({"model": "generic", "states": [
            {"label": "triple", "mass": 1.0, "offspring": {"3": 1.0}}]})
        report = quenched_martingale_check(env, (0,) * 40, k=39, replicas=100,
                                           rng=stream(0, DOMAIN_QUENCHED, 0))
        assert report.mean_ratio == pytest.approx(1.0, rel=1e-15)

    def test_prefix_stops_at_population_cap(self):
        env = parse_env_config(DOUBLING)
        states = (0,) * 601
        report = quenched_martingale_check(env, states, k=512, replicas=100,
                                           rng=stream(0, DOMAIN_QUENCHED, 0))
        assert report.mean_ratio == 1.0
        with pytest.raises(ResourceCapError, match="cap is 512 bits"):
            quenched_martingale_check(env, states, k=600, replicas=100,
                                      rng=stream(0, DOMAIN_QUENCHED, 0))

    def test_chain_state_replicas(self):
        env = parse_env_config(THREE_POINT)
        states = EnvTables(env).pick_states(stream(23, DOMAIN_SN, 0).random(6))
        report = quenched_martingale_check(env, states, k=3, replicas=5000,
                                           rng=stream(23, DOMAIN_QUENCHED, 0))
        assert abs(report.mean_ratio - 1.0) < 4 * report.stderr
