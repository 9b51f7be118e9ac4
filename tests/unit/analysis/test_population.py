"""Unit tests for population-level aggregation and interval statistics."""

import json

import pytest

from repro.analysis.population import (
    LongtermState,
    UsabilityState,
    proportion_summary,
    wilson_interval,
)


def _fold(state, envelopes, meta=None):
    """Fold *envelopes* in order into *state* and finalise, as the fleet
    engine does."""
    for envelope in envelopes:
        state.fold(envelope)
    return state.finalize(meta)


class TestWilsonInterval:
    def test_basic_properties(self):
        low, high = wilson_interval(8, 10)
        assert 0.0 <= low < 0.8 < high <= 1.0

    def test_extremes_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < high < 0.15
        low, high = wilson_interval(50, 50)
        assert 0.85 < low < 1.0
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrower_with_more_trials(self):
        small = wilson_interval(8, 10)
        large = wilson_interval(800, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)

    def test_proportion_summary_shape(self):
        summary = proportion_summary(3, 4)
        assert summary["rate"] == 0.75
        assert summary["ci95_low"] < 0.75 < summary["ci95_high"]
        assert summary["successes"] == 3 and summary["trials"] == 4


def _longterm_envelope(index, stolen, blocked, failures=0):
    def arm(protected):
        return {
            "machine_name": f"m{index}",
            "protected": protected,
            "days": 1,
            "stolen_counts": {"clipboard": 0 if protected else stolen},
            "blocked_counts": {"clipboard": blocked if protected else 0},
            "total_stolen": 0 if protected else stolen,
            "stolen_passwords_hex": [],
            "passwords_captured": 0,
            "legit_actions": 10,
            "legit_failures": failures if protected else 0,
            "device_grants": 2,
            "device_denials": 1,
            "alerts_shown": 3,
            "spy_rounds": stolen + blocked,
        }

    return {
        "machine_index": index,
        "seed": index,
        "days": 1,
        "protected": arm(True),
        "unprotected": arm(False),
        "counters": {
            "protected": {"x.ops": index + 1},
            "unprotected": {"x.ops": 2 * (index + 1)},
        },
    }


class TestAggregateLongterm:
    def test_sums_and_rates(self):
        envelopes = [
            _longterm_envelope(0, stolen=5, blocked=5),
            _longterm_envelope(1, stolen=3, blocked=7),
        ]
        aggregate = _fold(LongtermState(), envelopes)
        assert aggregate["machines"] == 2
        protected = aggregate["protected"]
        assert protected["attempts_blocked"] == 12
        assert protected["items_stolen"] == 0
        assert protected["block_rate"]["rate"] == 1.0
        assert protected["false_positive_rate"]["rate"] == 0.0
        assert protected["counters"] == {"x.ops": 3}
        unprotected = aggregate["unprotected"]
        assert unprotected["items_stolen"] == 8
        assert unprotected["steal_rate"]["rate"] == 1.0
        assert unprotected["counters"] == {"x.ops": 6}

    def test_order_of_envelope_fields_is_irrelevant_to_json(self):
        envelopes = [_longterm_envelope(0, 2, 2), _longterm_envelope(1, 1, 3)]
        one = json.dumps(_fold(LongtermState(), envelopes), sort_keys=True)
        # Same data with arm dict keys built in reverse insertion order.
        reversed_envelopes = [
            {key: envelope[key] for key in reversed(list(envelope))}
            for envelope in envelopes
        ]
        other = json.dumps(
            _fold(LongtermState(), reversed_envelopes), sort_keys=True
        )
        assert one == other

    def test_meta_passthrough(self):
        aggregate = _fold(
            LongtermState(),
            [_longterm_envelope(0, 1, 1)],
            meta={"seed": 7, "quarantined_shards": []},
        )
        assert aggregate["meta"]["seed"] == 7


class TestAggregateUsability:
    def test_counts_and_intervals(self):
        envelopes = [
            {
                "outcomes": [
                    {
                        "participant_id": i,
                        "likert_score": 1,
                        "behaviour_differences": 0,
                        "camera_blocked": True,
                        "alert_displayed": True,
                        "reaction": "INTERRUPTED_AND_REPORTED"
                        if i % 2
                        else "DID_NOT_NOTICE",
                    }
                    for i in range(4)
                ]
            },
            {
                "outcomes": [
                    {
                        "participant_id": 4,
                        "likert_score": 3,
                        "behaviour_differences": 1,
                        "camera_blocked": True,
                        "alert_displayed": False,
                        "reaction": "NOTICED_CONTINUED_TASK",
                    }
                ]
            },
        ]
        aggregate = _fold(UsabilityState(), envelopes)
        assert aggregate["participants"] == 5
        assert aggregate["identical_experience"]["successes"] == 4
        assert aggregate["camera_blocked"]["rate"] == 1.0
        assert aggregate["alert_displayed"]["successes"] == 4
        assert aggregate["reactions"] == {
            "DID_NOT_NOTICE": 2,
            "INTERRUPTED_AND_REPORTED": 2,
            "NOTICED_CONTINUED_TASK": 1,
        }
        assert aggregate["alert_noticed"]["successes"] == 3
