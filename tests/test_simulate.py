import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from roimeta.baselines import AaSettings, aa_calibrate, campaign_micro_totals
from roimeta.dataio import ingest, render_dataset_csv, write_dataset
from roimeta.errors import ConfigError
from roimeta.pipeline import collect_effects
from roimeta.preprocess import qualify
from roimeta.randomness import HashStream
from roimeta.simulate import SimConfig, generate_experiment
from roimeta.statfuncs import normal_quantile


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

    def test_poisson_small_mean_matches_inversion(self):
        stream = HashStream("p")
        draws = [stream.poisson(3.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(3.0, abs=0.15)
        assert min(draws) >= 0

    def test_poisson_large_mean_is_near_mean(self):
        stream = HashStream("p2")
        draws = [stream.poisson(2000.0) for _ in range(500)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(2000.0, rel=0.01)

    @pytest.mark.parametrize("key,expected", [
        (("x", 1), [
            0.4422043807225623, 0.16332588996732045, 0.18181098716848162,
            0.4792241040660869, 0.29193193743184087, 0.7384774926582678,
            0.01568420990421139, 0.4503348708317101,
        ]),
        (("aa-split", 9, 0, "c1"), [
            0.9260549156328864, 0.22049136377084183, 0.7404377107957899,
            0.6903585910793928, 0.7133044173914874, 0.11566107088333073,
            0.6580987005124302, 0.017785713509410446,
        ]),
    ], ids=["x", "aa-split"])
    def test_stream_values_are_pinned(self, key, expected):
        # values of the roimeta-hash-stream/1 generator; any change to them
        # must come with a new generator tag
        stream = HashStream(*key)
        assert [stream.uniform() for _ in range(8)] == expected

    def test_shuffle_is_a_permutation(self):
        stream = HashStream("s")
        items = list(range(10))
        shuffled = items[:]
        stream.shuffle(shuffled)
        assert sorted(shuffled) == items


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
    ``_next_u64`` -> ``uniform``, and ``shuffle`` through ``randbelow``."""

    def __init__(self, *key_parts):
        material = "\x1f".join(str(part) for part in key_parts).encode("utf-8")
        key = hashlib.blake2b(material, digest_size=16).digest()
        self._prefix = hashlib.blake2b(key, digest_size=8)
        self._counter = 0

    def _next_u64(self):
        block = self._prefix.copy()
        block.update(self._counter.to_bytes(8, "big"))
        self._counter += 1
        return int.from_bytes(block.digest(), "big")

    def uniform(self):
        return (self._next_u64() + 0.5) * 2.0 ** -64

    def normal(self, mean=0.0, sd=1.0):
        return mean + sd * reference_normal_quantile(self.uniform())

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

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def draw(stream, op):
    """One operation on a stream, as comparable text (floats by ``float.hex``)."""
    name, args = op[0], op[1:]
    if name == "shuffle":
        items = list(range(args[0]))
        stream.shuffle(items)
        return repr(items)
    if name == "normal" and args[0] is None:
        args = ()
    result = getattr(stream, name)(*args)
    return result.hex() if type(result) is float else repr(result)


draw_ops = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("normal"), st.none()),
    st.tuples(st.just("normal"), st.floats(-1e6, 1e6), st.floats(0.0, 1e3)),
    st.tuples(st.just("lognormal"), st.floats(-5.0, 5.0), st.floats(0.0, 2.0)),
    st.tuples(st.just("poisson"), st.sampled_from([0.0, 3.5, 50.0, 50.000001, 2000.0])),
    st.tuples(st.just("randbelow"), st.integers(1, 10**6)),
    st.tuples(st.just("shuffle"), st.integers(0, 600)),
)
key_parts = st.lists(st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6)), max_size=4)


class TestDrawParity:
    """``HashStream`` and ``normal_quantile`` against the chained reference above."""

    @settings(max_examples=200, deadline=None)
    @given(key_parts, st.lists(draw_ops, max_size=12))
    def test_interleaved_draws_match(self, key, ops):
        stream, reference = HashStream(*key), ReferenceStream(*key)
        for op in ops:
            assert draw(stream, op) == draw(reference, op), op
        # the next uniform agrees only if every call advanced both counters alike
        assert stream.uniform().hex() == reference.uniform().hex()

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([5e-324, 1e-300, 1e-20, 0.025, 0.5, 0.575, 0.925, 1.0 - 2.0 ** -53]),
    ))
    def test_normal_quantile_matches(self, p):
        assert normal_quantile(p).hex() == reference_normal_quantile(p).hex()


# Recorded with the chained generator that ReferenceStream copies; like
# test_stream_values_are_pinned, a change here needs a new generator tag.
PINNED_SHAPES = {
    "wide": (SimConfig(n_campaigns=200, m_a=10, m_b=10, treatment_lift=0.02),
             "218d9b582cd17ff88f4b00635834ec17b38eeaf8d4894683256357ec90b84246"),
    "deep": (SimConfig(n_campaigns=10, m_a=200, m_b=200, treatment_lift=0.02),
             "191591d118ba41c5c6f1654535cc0b1c00a966fce650f491d3d84aba717e8346"),
    "study": (SimConfig(n_campaigns=203, m_a=10, m_b=10, treatment_lift=-0.03,
                        outlier_campaigns=3, outlier_lift=0.5),
              "c8174b62d16220a901fe04c6bbaf6e595ebb12fc9ea995c4c83c293e24ba624c"),
}
PINNED_AA_STATS = {  # per_repeat_stats of micro, macro, macro_median (5 repeats, seed 0)
    "wide": (
        "(0.003033547345493992, -0.024155240317674687, 0.01570244699651646, "
        "0.060609816954996565, 0.0032490163804939076)",
        "(0.010993303083145136, -0.006386264797973928, 0.000428380759581537, "
        "0.0013765442235000968, 0.005490415554487102)",
        "(-0.0005968531616309392, -0.017357000536397105, -0.0034176138965813507, "
        "0.004700400304550323, -0.014986467498129097)",
    ),
    "deep": (
        "(-0.004833757641189429, 0.019081041198679483, 0.009214780926660282, "
        "-0.02147436350206089, -0.0063458967260107135)",
        "(-0.005772879373406248, 0.00261023869296263, 0.005430630063776687, "
        "-0.005209403577647265, 0.0017787329375319905)",
        "(-0.0046914211444475384, -0.005403247335484973, 0.002511905064747466, "
        "-0.004779375666352781, 0.0030323215130665937)",
    ),
    "study": (
        "(0.002610204802702243, -0.02339540086138514, 0.01515735277520125, "
        "0.059149352698675384, 0.0035192165442897716)",
        "(0.009547788811697804, -0.004595776670316557, -0.00035601702324965993, "
        "-0.0008691437119208315, 0.005391898200719214)",
        "(-0.0013616616907623502, -0.01605958883103553, -0.00344507796017246, "
        "0.0032395956543709303, -0.015037020525235256)",
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
            calibrations = aa_calibrate(dataset, campaign_micro_totals(dataset), settings)
            stats = tuple(repr(c.per_repeat_stats) for c in calibrations.values())
            assert stats == PINNED_AA_STATS[shape], share
