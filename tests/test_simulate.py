import hashlib
import math
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import blake2b_log
from roimeta.baselines import AaSettings, aa_calibrate, campaign_micro_totals
from roimeta.campaigns import ArmColumns
from roimeta.dataio import ingest, render_dataset_csv, write_dataset
from roimeta.errors import ConfigError, NoQualifiedCampaignsError
from roimeta.pipeline import collect_effects, evaluate
from roimeta.preprocess import qualify
from roimeta import randomness
from roimeta.randomness import HashStream, poisson_quantiles
from roimeta.simulate import SimConfig, generate_experiment
from roimeta.statfuncs import normal_quantile


# column values whose sums name the positions picked
BITS = [1 << p for p in range(600)]


class TestHashStream:
    def test_streams_are_reproducible(self):
        first = HashStream("x", 1)
        second = HashStream("x", 1)
        draws = [first.uniform() for _ in range(5)]
        assert draws == [second.uniform() for _ in range(5)]
        assert len(set(draws)) == len(draws)

    def test_distinct_keys_differ(self):
        assert HashStream("x", 1).uniform() != HashStream("x", 2).uniform()

    def test_uniform_is_strictly_inside_unit_interval(self):
        stream = HashStream("u")
        for _ in range(1000):
            u = stream.uniform()
            assert 0.0 < u < 1.0

    @pytest.mark.parametrize("u64", [2**64 - 1, 2**64 - 2**10, 2**64 - 2**10 - 1, 2**53])
    def test_top_digests_stay_below_one(self, u64, monkeypatch):
        """``(u64 + 0.5) * 2**-64`` rounds to 1.0 for the top 2**10 digests;
        only those map elsewhere, to the largest double below 1."""

        class FixedBlock:
            def copy(self):
                return self

            def update(self, data):
                pass

            def digest(self):
                return u64.to_bytes(8, "big") * 8  # eight copies of the word

        stream = HashStream("u")
        monkeypatch.setattr(hashlib, "blake2b", lambda *args, **kwargs: FixedBlock())
        u = stream.uniform()
        rounds_up = (u64 + 0.5) * 2.0 ** -64 == 1.0
        assert rounds_up == (u64 >= 2**64 - 2**10)
        assert u == (1.0 - 2.0 ** -53 if rounds_up else (u64 + 0.5) * 2.0 ** -64)
        assert 0.0 < u < 1.0
        assert stream.uniforms(3) == [u, u, u]  # words 1 to 3 of block 0
        assert stream.uniforms(8) == [u] * 8  # words 4 to 7 of block 0, 0 to 3 of block 1
        assert math.isfinite(stream.normal()) and math.isfinite(math.exp(stream.normal(0.0, 1.0)))
        # the partial Fisher-Yates clamps: position i swaps with
        # i + min(int(u * (n - i)), n - i - 1), never past n - 1
        unclamped = (u64 + 0.5) * 2.0 ** -64
        expected = list(range(6))
        for i in range(3):
            j = i + min(int(unclamped * (6 - i)), 6 - i - 1)
            expected[i], expected[j] = expected[j], expected[i]
        assert HashStream.sample_sums(("u",), [(b"c", BITS[:6], range(6), 3)]) == (
            [sum(BITS[p] for p in expected[:3])], [sum(expected[:3])])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 20), max_size=6))
    @example([7, 1])  # the last word of block 0, then the first of block 1
    @example([7, 2])  # a call across the block edge
    @example([8, 8])  # calls on block edges
    @example([1, 7, 9, 15, 1])
    def test_uniforms_calls_split_the_stream_anywhere(self, sizes):
        chunked = HashStream("chunks")
        drawn = [u for n in sizes for u in chunked.uniforms(n)]
        whole = HashStream("chunks").uniforms(sum(sizes) + 1)
        assert drawn == whole[:-1]
        assert chunked.uniform() == whole[-1]  # and the next draw follows on

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
    def test_single_draws_equal_one_call(self, n):
        single = HashStream("single")
        assert [single.uniform() for _ in range(n)] == HashStream("single").uniforms(n)

    def test_uniforms_rejects_a_negative_count(self):
        stream = HashStream("u")
        with pytest.raises(ValueError, match="n must be >= 0"):
            stream.uniforms(-1)
        assert stream.uniform() == HashStream("u").uniform()

    def test_poisson_small_mean_matches_inversion(self):
        reference = ReferenceStream("p")
        draws = poisson_quantiles(3.0, HashStream("p").uniforms(2000))
        assert draws == [reference.poisson(3.0) for _ in range(2000)]
        assert set(draws) >= set(range(8))  # the inversion walks past the mode

    def test_poisson_large_mean_is_near_mean(self):
        draws = poisson_quantiles(2000.0, HashStream("p2").uniforms(500))
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(2000.0, rel=0.01)

    @pytest.mark.parametrize("key,expected", [
        (("x", 1), [
            0.8056254541136801, 0.9635803881880369, 0.6323402193408099,
            0.2627718808927632, 0.29721909677728436, 0.10090845180188981,
            0.28118723678662516, 0.9448714549879061,
        ]),
        (("aa-split", 9, 0, "c1"), [
            0.7422077063517366, 0.32539048886634, 0.6620981758557293,
            0.2139908936939579, 0.04158802839110916, 0.1474610392800889,
            0.23041642817657623, 0.5841579030560144,
        ]),
    ], ids=["x", "aa-split"])
    def test_stream_values_are_pinned(self, key, expected):
        # values of the roimeta-hash-stream/2 generator; any change to them
        # must come with a new generator tag. How a caller consumes them (for
        # example how many draws an A/A split takes) is not part of the tag.
        stream = HashStream(*key)
        assert [stream.uniform() for _ in range(8)] == expected

    def test_sample_sums_pick_k_distinct_positions(self):
        # the sum of k powers of two has k bits set only if the k picks differ
        columns = [(str(k).encode(), BITS[:10], range(10), k) for k in (0, 1, 5, 9, 10)]
        sums_x, sums_y = HashStream.sample_sums(("s",), columns)
        for (_, _, _, k), sum_x, sum_y in zip(columns, sums_x, sums_y):
            picks = [p for p in range(10) if sum_x >> p & 1]
            assert len(picks) == k and sum_x < 2**10 and sum_y == sum(picks), k

    @pytest.mark.parametrize("k", [-1, 11])
    def test_sample_sums_rejects_k_outside_the_column(self, k):
        with pytest.raises(ValueError, match="k must be in"):
            HashStream.sample_sums(("s",), [(b"c", range(10), range(10), k)])

    def test_sample_sums_pick_a_uniform_subset(self):
        # all 10 two-subsets of 5 items, 4,000 fixed keys: chi-square with
        # 9 degrees of freedom, 27.88 is its 0.999 quantile
        columns = [(str(key).encode(), BITS[:5], BITS[:5], 2) for key in range(4000)]
        counts = {}
        for pair in HashStream.sample_sums(("subset",), columns)[0]:
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 10
        chi2 = sum((c - 400) ** 2 / 400 for c in counts.values())
        assert chi2 < 27.88

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (10, 1), (10, 3), (10, 8), (10, 9),
                                     (16, 16), (500, 50)])
    def test_sample_sums_take_exactly_k_draws(self, n, k):
        # k draws are the first k words of the stream: ceil(k / 8) digests, fed counters 0..
        with blake2b_log() as log:
            HashStream.sample_sums(("draws", n), [(b"c", range(n), range(n), k)])
        key = hashlib.blake2b(f"draws\x1f{n}\x1fc".encode(), digest_size=16).digest()
        assert [fed for size, fed, _ in log if size == 64] == [
            key + c.to_bytes(8, "big") for c in range(-(-k // 8))]


class TestGenerateExperiment:
    def test_fixed_seed_reproduces_dataset(self):
        config = SimConfig(n_campaigns=6, m_a=4, m_b=3, seed=99)
        assert generate_experiment(config) == generate_experiment(config)

    def test_different_seeds_differ(self):
        a = generate_experiment(SimConfig(n_campaigns=4, seed=1))
        b = generate_experiment(SimConfig(n_campaigns=4, seed=2))
        assert a != b

    def test_shapes_and_positivity(self):
        config = SimConfig(n_campaigns=5, m_a=4, m_b=3, treatment_share=0.25, seed=3)
        dataset = generate_experiment(config)
        assert dataset.n == 5
        for campaign in dataset.campaigns:
            assert campaign.m_a == 4
            assert campaign.m_b == 3
            for part in campaign.parts_a + campaign.parts_b:
                assert part.spend > 0
                assert part.roi is not None and part.roi > 0

    def test_campaigns_are_order_independent_substreams(self):
        small = generate_experiment(SimConfig(n_campaigns=3, seed=11))
        large = generate_experiment(SimConfig(n_campaigns=5, seed=11))
        assert large.campaigns[:3] == small.campaigns

    def test_zero_noise_zero_lift_gives_equal_arms_in_memory_and_from_csv(self, tmp_path):
        config = SimConfig(
            n_campaigns=4, m_a=5, m_b=3, part_noise_sd=0.0, treatment_lift=0.0, seed=21,
        )
        dataset = generate_experiment(config)
        for campaign in dataset.campaigns:
            (roi_a,), (roi_b,) = ({p.roi for p in campaign.parts_a},
                                  {p.roi for p in campaign.parts_b})
            # each ROI is the same drawn level, off by at most half a
            # micro-unit of value and of spend
            bound = sum(0.5e-6 * (1 + roi) / parts[0].spend for roi, parts in (
                (roi_a, campaign.parts_a), (roi_b, campaign.parts_b)))
            assert abs(roi_a - roi_b) <= bound * (1 + 1e-9)
        path = tmp_path / "parts.csv"
        write_dataset(dataset, path)
        assert collect_effects(ingest(path)) == collect_effects(dataset)

    def test_noise_free_dataset_cannot_be_evaluated(self):
        # documented on SimConfig: one ROI per arm leaves no pooled spread,
        # so effect-size screening excludes every campaign
        dataset = generate_experiment(SimConfig(
            n_campaigns=6, m_a=5, m_b=3, treatment_lift=0.1, part_noise_sd=0.0, seed=21,
        ))
        effects, excluded = collect_effects(qualify(dataset).qualified)
        assert effects == ()
        assert [e.reason for e in excluded] == [
            f"campaign {c.campaign_id!r}: zero pooled spread with unequal means"
            for c in dataset.campaigns
        ]
        with pytest.raises(NoQualifiedCampaignsError, match=(
            r"^no qualified campaign is eligible for effect-size analysis \(6 excluded\)$"
        )):
            evaluate(dataset)

    def test_outliers_are_highest_budget_campaigns(self):
        config = SimConfig(
            n_campaigns=10, outlier_campaigns=2, outlier_lift=5.0,
            part_noise_sd=0.0, treatment_lift=0.0, seed=13,
        )
        dataset = generate_experiment(config)
        spends = {cid: t[0] + t[2] for cid, t in campaign_micro_totals(dataset).items()}
        lifted = {
            c.campaign_id
            for c in dataset.campaigns
            if c.parts_b[0].roi > 2 * c.parts_a[0].roi
        }
        top_two = sorted(spends, key=spends.get, reverse=True)[:2]
        assert lifted == set(top_two)

    def test_treatment_share_controls_arm_spend(self):
        config = SimConfig(n_campaigns=3, treatment_share=0.2, part_noise_sd=0.0, seed=5)
        dataset = generate_experiment(config)
        for spend_a, _, spend_b, _ in campaign_micro_totals(dataset).values():
            assert spend_b / (spend_a + spend_b) == pytest.approx(0.2, abs=1e-6)

    def test_null_grand_mean_effect_is_small(self):
        total = 0.0
        runs = 300
        for seed in range(runs):
            config = SimConfig(n_campaigns=20, m_a=6, m_b=6, part_noise_sd=0.1,
                               treatment_lift=0.0, seed=seed)
            dataset = generate_experiment(config)
            effects, _ = collect_effects(qualify(dataset).qualified)
            total += math.fsum(e.d for e in effects) / len(effects)
        assert abs(total / runs) <= 0.015

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SimConfig(n_campaigns=0)
        with pytest.raises(ConfigError):
            SimConfig(m_a=1)
        with pytest.raises(ConfigError):
            SimConfig(treatment_share=1.2)
        with pytest.raises(ConfigError):
            SimConfig(outlier_campaigns=5, n_campaigns=3)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("key", [
        key for key, hint in get_type_hints(SimConfig).items() if hint is float])
    def test_non_finite_float_keys_are_config_errors(self, key, bad):
        with pytest.raises(ConfigError) as caught:
            SimConfig(**{key: bad})
        assert str(caught.value) == f"{key} must be finite, got {bad!r}"

    @pytest.mark.parametrize("changes", [dict(budget_log_mean=1000.0),
                                         dict(budget_log_sd=1000.0)], ids=["mean", "sd"])
    def test_budget_overflow_is_a_config_error(self, changes):
        config = SimConfig(**changes)
        with pytest.raises(ConfigError) as caught:
            generate_experiment(config)
        assert str(caught.value) == (
            f"simulated budget is too large for a float (budget_log_mean = "
            f"{config.budget_log_mean!r}, budget_log_sd = {config.budget_log_sd!r})")

    @pytest.mark.parametrize("changes, message", [
        (dict(base_roi_mean=1e300), "simulated value is too large to quantize, got "),
        (dict(base_roi_mean=1e306), "simulated value must be finite and >= 0, got inf"),
        # arm B: an infinite ROI level (1.7e308 * 2) times a zero spend
        (dict(base_roi_mean=1.7e308, campaign_roi_sd=0.0, part_noise_sd=0.0,
              treatment_lift=1.0, treatment_share=0.0, budget_log_mean=-700.0),
         "simulated value must be finite and >= 0, got nan"),
        (dict(budget_log_mean=700.0), "simulated spend is too large to quantize, got "),
    ], ids=["value-above-limit", "value-infinite", "value-nan", "spend-above-limit"])
    def test_money_outside_the_money_rule_is_a_config_error(self, changes, message):
        with pytest.raises(ConfigError) as caught:
            generate_experiment(SimConfig(n_campaigns=2, budget_log_sd=0.0, **changes))
        assert str(caught.value).startswith(message)


_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def reference_normal_pdf(x):
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def reference_normal_cdf(x):
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def reference_normal_quantile(p):
    """AS 241 with its Newton step through separate pdf and cdf calls."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be strictly inside (0, 1), got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        x = q * num / den
    else:
        r = p if q < 0 else 1.0 - p
        r = math.sqrt(-math.log(r))
        if r <= 5.0:
            r -= 1.6
            num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                        + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                      + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                    + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
            den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                        + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                      + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                    + 2.05319162663775882187e0) * r + 1.0)
        else:
            r -= 5.0
            num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                        + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                      + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                    + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
            den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                        + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                      + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                    + 5.99832206555887937690e-1) * r + 1.0)
        x = num / den
        if q < 0:
            x = -x
    pdf = reference_normal_pdf(x)
    if pdf > 1e-280:
        x -= (reference_normal_cdf(x) - p) / pdf
    return x


class ReferenceStream:
    """The chained form of ``HashStream``: every variate goes through
    ``_next_u64`` -> ``uniform``, and ``shuffle`` through ``randbelow``
    in the forward partial form."""

    def __init__(self, *key_parts):
        material = "\x1f".join(str(part) for part in key_parts).encode("utf-8")
        key = hashlib.blake2b(material, digest_size=16).digest()
        self._prefix = hashlib.blake2b(key, digest_size=64)
        self._counter = 0

    def _next_u64(self):
        """Word ``i % 8`` of block ``i // 8``, block ``c`` being the digest of key + ``c``."""
        block = self._prefix.copy()
        block.update((self._counter // 8).to_bytes(8, "big"))
        word = self._counter % 8
        self._counter += 1
        return int.from_bytes(block.digest()[8 * word:8 * word + 8], "big")

    def uniform(self):
        return (self._next_u64() + 0.5) * 2.0 ** -64

    def normal(self, mean=0.0, sd=1.0):
        return mean + sd * reference_normal_quantile(self.uniform())

    def uniforms(self, n):
        return [self.uniform() for _ in range(n)]

    def lognormal(self, log_mean, log_sd):
        return math.exp(self.normal(log_mean, log_sd))

    def poisson(self, lam):
        if lam < 0:
            raise ValueError(f"poisson mean must be >= 0, got {lam!r}")
        if lam == 0:
            return 0
        if lam <= 50.0:
            u = self.uniform()
            k = 0
            prob = math.exp(-lam)
            cumulative = prob
            while u > cumulative:
                k += 1
                prob *= lam / k
                cumulative += prob
                if prob == 0.0:
                    break
            return k
        return max(0, int(round(lam + math.sqrt(lam) * self.normal())))

    def randbelow(self, n):
        if n <= 0:
            raise ValueError(f"n must be >= 1, got {n!r}")
        return min(int(self.uniform() * n), n - 1)

    def shuffle(self, items, k):
        for i in range(k):
            j = i + self.randbelow(len(items) - i)
            items[i], items[j] = items[j], items[i]


def draw(stream, op, key):
    """One operation on the stream keyed ``key``, as comparable text (floats by
    ``float.hex``); ``sample_sums`` reads the stream of ``key`` + its name."""
    name, args = op[0], op[1:]
    if name == "poisson":  # HashStream's counts come from a block of uniforms
        lam, n = args
        if isinstance(stream, HashStream):
            return repr(poisson_quantiles(lam, stream.uniforms(n)))
        return repr([stream.poisson(lam) for _ in range(n)])
    if name == "sample_sums":
        split, n, k = args
        if isinstance(stream, HashStream):
            return repr(HashStream.sample_sums(key, [(split.encode(), BITS[:n], range(n), k)]))
        items = list(range(n))
        ReferenceStream(*key, split).shuffle(items, k)
        return repr(([sum(BITS[p] for p in items[:k])], [sum(items[:k])]))
    if name == "normal" and args[0] is None:
        args = ()
    result = getattr(stream, name)(*args)
    return result.hex() if type(result) is float else repr(result)


draw_ops = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("uniforms"), st.integers(0, 40)),
    st.tuples(st.just("normal"), st.none()),
    st.tuples(st.just("normal"), st.floats(-1e6, 1e6), st.floats(0.0, 1e3)),
    st.tuples(st.just("normal"), st.floats(-5.0, 5.0), st.floats(0.0, 2.0)),
    st.tuples(st.just("poisson"), st.sampled_from([3.5, 50.0, 50.000001, 2000.0]),
              st.integers(0, 20)),
    st.integers(0, 600).flatmap(lambda n: st.tuples(
        st.just("sample_sums"), st.text(max_size=4), st.just(n), st.integers(0, n))),
)
key_parts = st.lists(st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6)), max_size=4)


class TestDrawParity:
    """``HashStream`` and ``normal_quantile`` against the chained reference above."""

    @settings(max_examples=200, deadline=None)
    @given(key_parts, st.lists(draw_ops, max_size=12))
    def test_interleaved_draws_match(self, key, ops):
        stream, reference = HashStream(*key), ReferenceStream(*key)
        for op in ops:
            assert draw(stream, op, key) == draw(reference, op, key), op
        # the next uniform agrees only if every call advanced both counters alike
        assert stream.uniform().hex() == reference.uniform().hex()

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-300, 1e-20, 0.025, 0.5, 0.575, 0.925, 1.0 - 2.0 ** -53]),
    ))
    def test_normal_quantile_matches(self, p):
        assert normal_quantile(p).hex() == reference_normal_quantile(p).hex()


TABLE_LIMIT, GUARD = 1e6, 1e-9


class TestPoissonBoundaryTable:
    """``poisson_quantiles`` reads a large-mean count off a table of boundaries
    only where ``ReferenceStream.poisson``'s formula gives the same count."""

    STREAM = HashStream("poisson-table").uniforms(100_000)
    QUANTILES = {}  # u -> normal_quantile(u), bit-identical to its reference (test above)

    @staticmethod
    def probes(lam):
        """Each boundary within 8 sd of ``lam``, its two neighbouring doubles,
        the points one and two guards either side, and both extreme uniforms."""
        root = math.sqrt(lam)
        probes = [2.0 ** -65, 1.0 - 2.0 ** -53]
        for k in range(max(0, math.ceil(lam - 8.0 * root)), math.floor(lam + 8.0 * root) + 1):
            b = reference_normal_cdf((k + 0.5 - lam) / root)
            probes += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0),
                       b - GUARD, b + GUARD, b - 2 * GUARD, b + 2 * GUARD]
        return [u for u in probes if 0.0 < u < 1.0]

    @pytest.mark.parametrize("lam", [50.000001, 118.0, 2000.0, TABLE_LIMIT,
                                     math.nextafter(TABLE_LIMIT, math.inf)])
    def test_every_count_matches_the_formula(self, lam, monkeypatch):
        probes = self.probes(lam)
        draws = probes + self.STREAM
        quantiles, root = self.QUANTILES, math.sqrt(lam)
        for u in draws:
            if u not in quantiles:
                quantiles[u] = normal_quantile(u)
        # ReferenceStream.poisson above a mean of 50
        expected = [max(0, int(round(lam + root * quantiles[u]))) for u in draws]
        build, erfc, tables = randomness._count_bounds, math.erfc, {}
        # libm's erfc as is, then one ulp low and one high while the table is built;
        # a nudged table can move only the counts of draws near a boundary: the probes
        for nudge, inputs in ((None, draws), (-math.inf, probes), (math.inf, probes)):
            built = tables[nudge] = []

            def nudged_build(*args, nudge=nudge, built=built):
                with monkeypatch.context() as patch:
                    if nudge is not None:
                        patch.setattr(math, "erfc", lambda x: math.nextafter(erfc(x), nudge))
                    built.append(build(*args))
                return built[-1]

            monkeypatch.setattr(randomness, "_count_bounds", nudged_build)
            direct = []  # the draws the expression counted
            with monkeypatch.context() as patch:
                patch.setattr(randomness, "normal_quantile",
                              lambda u: direct.append(u) or normal_quantile(u))
                assert poisson_quantiles(lam, inputs) == expected[:len(inputs)], nudge
            assert len(built) == (lam <= TABLE_LIMIT)
            if lam > TABLE_LIMIT:
                return
            assert len(direct) < len(probes)  # the table counted the rest
        for nudge in (-math.inf, math.inf):  # every boundary moved
            assert all(map(float.__ne__, tables[None][0], tables[nudge][0]))


def reference_factor(stream, sd):
    """Mean-one lognormal noise; at sd 0 the draw is still taken."""
    if sd == 0.0:
        stream.uniform()
        return 1.0
    return math.exp(sd * stream.normal() - 0.5 * sd * sd)


def reference_arms(config):
    """``generate_experiment`` part by part from ``ReferenceStream``: each part
    draws its ROI factor, then its impressions, and is quantised on its own."""
    n = config.n_campaigns
    streams = [ReferenceStream("sim", config.seed, "campaign", i) for i in range(n)]
    budgets = [s.lognormal(config.budget_log_mean, config.budget_log_sd) for s in streams]
    outliers = sorted(range(n), key=lambda i: (-budgets[i], i))[:config.outlier_campaigns]
    campaigns = []
    for i, stream in enumerate(streams):
        level = config.base_roi_mean * reference_factor(stream, config.campaign_roi_sd)
        lift = config.outlier_lift if i in outliers else config.treatment_lift
        arms = []
        for m, share, roi_level in ((config.m_a, 1.0 - config.treatment_share, level),
                                    (config.m_b, config.treatment_share, level * (1.0 + lift))):
            spend = budgets[i] * share / m
            parts = []
            for part_id in range(m):
                roi = roi_level * reference_factor(stream, config.part_noise_sd)
                impressions = stream.poisson(config.impressions_per_part_mean)
                spend_micros, value_micros = round(spend * 1e6), round(roi * spend * 1e6)
                parts.append((part_id, impressions, spend_micros, value_micros,
                              value_micros / 1_000_000 / (spend_micros / 1_000_000)
                              if spend_micros else None))
            arms.append(ArmColumns(*map(tuple, zip(*parts))))
        campaigns.append((f"camp_{i:0{len(str(n - 1))}d}", *arms))
    return campaigns


@st.composite
def sim_configs(pick):
    n = pick(st.integers(1, 5))
    return SimConfig(
        n_campaigns=n,
        m_a=pick(st.integers(2, 30)),
        m_b=pick(st.integers(2, 30)),
        treatment_share=pick(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        budget_log_sd=pick(st.sampled_from([0.0, 2.0])),
        campaign_roi_sd=pick(st.sampled_from([0.0, 0.25])),
        part_noise_sd=pick(st.sampled_from([0.0, 0.1, 1.5])),
        treatment_lift=pick(st.floats(-0.5, 1.0)),
        outlier_campaigns=pick(st.integers(0, n)),
        outlier_lift=pick(st.floats(-0.5, 5.0)),
        impressions_per_part_mean=pick(st.sampled_from([0.0, 3.5, 50.0, 50.000001, 2000.0])),
        seed=pick(st.integers(0, 10**6)),
    )


class TestGeneratorParity:
    """Each arm's block of draws against the part-by-part reference above,
    including the branches the pinned shapes never reach."""

    @settings(max_examples=150, deadline=None)
    @given(sim_configs())
    def test_arm_columns_match(self, config):
        dataset = generate_experiment(config)
        assert [(c.campaign_id, c.a, c.b) for c in dataset.campaigns] == reference_arms(config)


# Recorded with the roimeta-hash-stream/2 generator that ReferenceStream copies;
# like test_stream_values_are_pinned, a change to the dataset bytes needs a new
# generator tag. The A/A statistics also pin how a split consumes its stream
# (a partial shuffle of n_b draws), which can move them under the same tag.
PINNED_SHAPES = {
    "wide": (SimConfig(n_campaigns=200, m_a=10, m_b=10, treatment_lift=0.02),
             "32e6d44094a854905aefcd3ce4e171d56f8bdddf30e6d72d10e842e43324ecd1"),
    "deep": (SimConfig(n_campaigns=10, m_a=200, m_b=200, treatment_lift=0.02),
             "e07156828da7ca001b8aed8ad31008e1ec2c06503d87d6eb9488b625f81496d1"),
    "study": (SimConfig(n_campaigns=203, m_a=10, m_b=10, treatment_lift=-0.03,
                        outlier_campaigns=3, outlier_lift=0.5),
              "ccef4521741006ba5348368314e0aaecc2c711c668127fa3c7e4db74f2421d67"),
}
PINNED_AA_STATS = {  # the AaRecord's micro, macro, macro_median (5 repeats, seed 0)
    "wide": (
        "(0.019630657983419675, 0.030547868990721816, -0.13136527514760965, "
        "0.05814311317706422, 0.0011708621915290651)",
        "(0.0019967779511849415, 0.012262763455581544, -0.01243058429245846, "
        "0.005630011419565202, 0.003800700545206223)",
        "(0.0026294135136522012, 0.003161671290888124, -0.013610369396240052, "
        "-0.0009852158759309226, -0.009550850902389996)",
    ),
    "deep": (
        "(-0.0011071631834924656, -0.04733655203378473, -0.03231338774994241, "
        "-0.004280708603259242, 0.010469797653146262)",
        "(-0.004053441158420901, -0.004359025001839623, -0.016074673886368573, "
        "-0.0056329223990321696, 0.0148579008738025)",
        "(-0.00880806070362794, -0.0023442674722547463, -0.01599077695941231, "
        "-0.004626832568424, 0.01698055332554871)",
    ),
    "study": (
        "(0.020038550135661803, 0.030840711651267894, -0.1312287831219231, "
        "0.05837246592175005, 0.0025631264210197457)",
        "(0.0020139766942571997, 0.011774990660959826, -0.013114246366127146, "
        "0.00687849498545854, 0.004577423478244924)",
        "(0.005708406779234121, 0.0032089071457187535, -0.01436810462228344, "
        "0.003511244220490095, -0.009015796871887582)",
    ),
}


class TestSeededOutputsPinned:
    """The benchmark's three shapes at smoke size give the recorded dataset
    bytes and A/A statistics, at share 0.1 and at the observed share."""

    @pytest.mark.parametrize("shape", sorted(PINNED_SHAPES))
    def test_dataset_and_aa_stats(self, shape):
        config, csv_sha = PINNED_SHAPES[shape]
        dataset = generate_experiment(config)
        text = render_dataset_csv(dataset)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == csv_sha
        totals = campaign_micro_totals(dataset).values()
        spend_b = sum(t[2] for t in totals)
        observed = spend_b / (spend_b + sum(t[0] for t in totals))
        for share in (0.1, observed):
            settings = AaSettings(5, 0, share)
            record = aa_calibrate(dataset, campaign_micro_totals(dataset), settings)
            stats = (repr(record.micro), repr(record.macro), repr(record.macro_median))
            assert stats == PINNED_AA_STATS[shape], share
