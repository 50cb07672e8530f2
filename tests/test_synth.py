from dataclasses import fields

import numpy as np
import pytest

from oicloc import synth
from oicloc.errors import InputError
from oicloc.synth import SynthSpec, synth_corpus

SPEC = SynthSpec(
    num_classes=3,
    t_range=(40, 80),
    instances_range=(1, 3),
    base_activation=0.9,
    noise_amp=0.02,
    dip_prob=0.5,
    bridge_prob=0.3,
)


class TestSynthSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(InputError):
            SynthSpec(num_classes=1, t_range=(50, 40), instances_range=(1, 1))

    def test_rejects_tiny_instances(self):
        with pytest.raises(InputError):
            SynthSpec(num_classes=1, t_range=(40, 50), instances_range=(1, 1),
                      instance_len_range=(2, 5))

    @pytest.mark.parametrize("field, value", [
        ("noise_amp", "x"), ("fps", True), ("num_classes", 2.0), ("t_range", (1, 2, 3)),
        ("dip_central", 1), ("fps", 0.0), ("base_activation", 0.0), ("base_activation", 1.5),
    ])
    def test_rejects_mistyped_or_bad_field(self, field, value):
        with pytest.raises(InputError, match=field):
            SynthSpec.from_dict({**SPEC.to_dict(), field: value})

    def test_rejects_no_classes(self):
        with pytest.raises(InputError, match="'num_classes' must be a positive integer"):
            SynthSpec.from_dict({**SPEC.to_dict(), "num_classes": 0})

    @pytest.mark.parametrize("field", [
        "background", "noise_amp", "dip_prob", "bridge_prob", "level_jitter", "dip_level",
        "bridge_level",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), float("inf")])
    def test_rejects_level_or_probability_outside_unit_interval(self, field, value):
        with pytest.raises(InputError, match=f"'{field}' must be a finite number in \\[0, 1\\]"):
            SynthSpec.from_dict({**SPEC.to_dict(), field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fps(self, value):
        with pytest.raises(InputError, match="'fps' must be a positive finite number"):
            SynthSpec.from_dict({**SPEC.to_dict(), "fps": value})

    def test_accepts_unit_interval_ends(self):
        ends = {"background": 0.0, "noise_amp": 1.0, "dip_prob": 1.0, "bridge_level": 0.0}
        assert SynthSpec.from_dict({**SPEC.to_dict(), **ends}).noise_amp == 1.0

    def test_every_field_has_one_rule(self):
        """A field added without a rule fails here, not on the first bad spec."""
        assert synth._RULES.keys() == {f.name for f in fields(SynthSpec)}

    def test_a_constructed_spec_holds_tuples(self):
        spec = SynthSpec(num_classes=1, t_range=[40, 50], instances_range=(1, 1))
        assert spec.t_range == (40, 50) and spec == SynthSpec.from_dict(spec.to_dict())

    def test_dict_roundtrip(self):
        assert SynthSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InputError, match="plateau"):
            SynthSpec.from_dict({**SPEC.to_dict(), "plateau": 1})


class TestSynthCorpus:
    def test_rejects_a_count_that_is_not_an_integer(self):
        with pytest.raises(InputError, match="^synth_corpus: 'count' must be a positive integer$"):
            synth_corpus(SPEC, 0, 2.5)

    def test_deterministic_for_same_seed(self):
        a = synth_corpus(SPEC, 7, 10)
        b = synth_corpus(SPEC, 7, 10)
        assert all(np.array_equal(x.cas.act, y.cas.act) for x, y in zip(a, b))
        assert all(x.gt == y.gt for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = synth_corpus(SPEC, 7, 5)
        b = synth_corpus(SPEC, 8, 5)
        assert any(not np.array_equal(x.cas.act, y.cas.act) for x, y in zip(a, b))

    def test_shapes_and_labels(self):
        videos = synth_corpus(SPEC, 0, 20, prefix="train")
        for v in videos:
            assert v.cas.num_classes == 3
            assert SPEC.t_range[0] <= v.cas.num_snippets <= SPEC.t_range[1]
            assert len(v.labels) == 1
            assert v.video_id.startswith("train_")

    def test_gt_matches_label_and_time_convention(self):
        videos = synth_corpus(SPEC, 3, 20)
        for v in videos:
            for g in v.gt:
                assert g.class_id == v.labels[0]
                assert g.end_s > g.start_s >= 0.0
                # boundaries land on the snippet grid
                snippets = (g.start_s * v.fps / 15.0 + 1, g.end_s * v.fps / 15.0 + 1)
                assert all(abs(s - round(s)) < 1e-9 for s in snippets)

    def test_instances_sit_above_background(self):
        quiet = SynthSpec(num_classes=2, t_range=(40, 60), instances_range=(1, 2),
                          base_activation=0.9, noise_amp=0.0)
        for v in synth_corpus(quiet, 5, 10):
            k = v.labels[0]
            for g in v.gt:
                s = int(round(g.start_s * v.fps / 15.0)) + 1
                e = int(round(g.end_s * v.fps / 15.0)) + 1
                seg = v.cas.act[k - 1, s - 1 : e]
                assert seg.min() >= 0.8

    def test_central_dip_confined_to_middle_third(self):
        spec = SynthSpec(num_classes=1, t_range=(60, 60), instances_range=(1, 1),
                         base_activation=0.9, noise_amp=0.0, dip_prob=1.0,
                         dip_level=0.05, dip_width_range=(1, 1), dip_central=True,
                         instance_len_range=(12, 12))
        for v in synth_corpus(spec, 11, 10):
            g = v.gt[0]
            s = int(round(g.start_s * v.fps / 15.0)) + 1
            e = int(round(g.end_s * v.fps / 15.0)) + 1
            row = v.cas.act[0, s - 1 : e]
            dips = np.nonzero(row < 0.5)[0]
            assert len(dips) == 1
            assert len(row) // 3 <= dips[0] <= 2 * len(row) // 3

    def test_central_dip_without_room_in_the_middle_third_fills_the_interior(self):
        # a 6-snippet instance has no room for a 4-snippet notch in its middle
        # third, so the notch falls back to s+1 .. s+4
        spec = SynthSpec(num_classes=1, t_range=(40, 40), instances_range=(1, 2),
                         dip_prob=1.0, dip_width_range=(4, 4), dip_central=True,
                         instance_len_range=(6, 6))
        for v in synth_corpus(spec, 0, 5):
            for g in v.gt:
                s = int(round(g.start_s * v.fps / 15.0)) + 1
                assert v.cas.act[0, s - 1 : s + 5].tolist() == [0.9, 0.05, 0.05, 0.05, 0.05, 0.9]

    def test_activations_stay_in_unit_interval(self):
        noisy = SynthSpec(num_classes=2, t_range=(40, 60), instances_range=(1, 2),
                          base_activation=0.95, noise_amp=0.3)
        for v in synth_corpus(noisy, 2, 10):
            assert v.cas.act.min() >= 0.0
            assert v.cas.act.max() <= 1.0
