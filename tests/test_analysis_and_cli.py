"""Tests for the analysis tools (model, charts, export) and the CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.charts import ascii_bar_chart, ascii_line_chart
from repro.analysis.export import rows_to_csv, rows_to_json, write_rows
from repro.analysis.model import AnalyticalModel
from repro.cli import FIGURES, build_parser, main
from repro.consensus.config import ProtocolConfig


SAMPLE_ROWS = [
    {"protocol": "hotstuff", "n": 4, "throughput_tps": 100.0, "avg_latency_ms": 9.0},
    {"protocol": "hotstuff-1", "n": 4, "throughput_tps": 101.0, "avg_latency_ms": 5.0},
]


class TestAnalyticalModel:
    def make_model(self, n=32, batch=100):
        return AnalyticalModel(ProtocolConfig(n=n, batch_size=batch), hop_latency=0.0005)

    def test_latency_ordering_matches_half_phases(self):
        model = self.make_model()
        latencies = {
            protocol: model.predict(protocol).client_latency
            for protocol in ("hotstuff", "hotstuff-2", "hotstuff-1")
        }
        assert latencies["hotstuff-1"] < latencies["hotstuff-2"] < latencies["hotstuff"]

    def test_latency_ratio_roughly_five_ninths(self):
        model = self.make_model()
        ratio = model.latency_ratio("hotstuff-1", "hotstuff")
        assert 0.45 < ratio < 0.75

    def test_streamlined_throughput_equal_across_protocols(self):
        model = self.make_model()
        predictions = [model.predict(p).saturation_throughput for p in ("hotstuff", "hotstuff-2", "hotstuff-1")]
        assert max(predictions) == pytest.approx(min(predictions))

    def test_basic_variant_has_half_throughput(self):
        model = self.make_model()
        basic = model.predict("hotstuff-1-basic").saturation_throughput
        streamlined = model.predict("hotstuff-1").saturation_throughput
        assert basic == pytest.approx(streamlined / 2)

    @pytest.mark.parametrize("alias", ["hotstuff1-basic", "hotstuff1", "hotstuff-1-streamlined"])
    def test_alias_predicts_like_its_canonical_name(self, alias):
        """Protocol facts come from the replica class, so a registered alias
        (e.g. ``hotstuff1-basic``) is the same protocol to the model."""
        from repro.core.registry import canonical_protocol

        model = self.make_model()
        by_alias = model.predict(alias).as_dict()
        by_name = model.predict(canonical_protocol(alias)).as_dict()
        by_alias.pop("protocol")
        by_name.pop("protocol")
        assert by_alias == by_name

    def test_throughput_decreases_with_n(self):
        small = self.make_model(n=4).predict("hotstuff-1").saturation_throughput
        large = self.make_model(n=64).predict("hotstuff-1").saturation_throughput
        assert large < small

    def test_batching_saturates(self):
        model = self.make_model(n=8)
        batch = model.saturation_batch("hotstuff-1")
        assert 100 <= batch <= 1_000_000
        # Throughput gain from batch -> 2*batch at the saturation point is sub-linear.
        low = model.predict("hotstuff-1", batch).saturation_throughput
        high = model.predict("hotstuff-1", batch * 2).saturation_throughput
        assert high / low < 1.9

    def test_prediction_dict_has_units(self):
        data = self.make_model().predict("hotstuff-1").as_dict()
        assert {"view_duration_ms", "saturation_throughput_tps", "client_latency_ms"} <= set(data)
        assert data["knee_clients"] >= 16

    def test_model_predicts_simulated_order_of_magnitude(self):
        """The model should land within ~3x of the simulator for throughput."""
        from repro.experiments.runner import ExperimentSpec, run_experiment

        result = run_experiment(
            ExperimentSpec(protocol="hotstuff-1", n=4, batch_size=20, duration=0.2, warmup=0.05)
        )
        predicted = AnalyticalModel(
            ProtocolConfig(n=4, batch_size=20), hop_latency=0.0005
        ).predict("hotstuff-1")
        ratio = predicted.saturation_throughput / max(result.throughput, 1.0)
        assert 0.3 < ratio < 3.0


class TestCharts:
    def test_bar_chart_contains_labels_and_bars(self):
        chart = ascii_bar_chart(SAMPLE_ROWS, "protocol", "throughput_tps", title="tput")
        assert "tput" in chart
        assert "hotstuff-1" in chart
        assert "#" in chart

    def test_bar_chart_empty(self):
        assert "(no data)" in ascii_bar_chart([], "protocol", "x")

    def test_line_chart_renders_axes_and_legend(self):
        series = {"hotstuff-1": {4: 5.0, 32: 6.4}, "hotstuff": {4: 9.0, 32: 10.6}}
        chart = ascii_line_chart(series, title="latency")
        assert "latency" in chart
        assert "legend:" in chart
        assert "x: 4.0 .. 32.0" in chart

    def test_line_chart_empty(self):
        assert "(no data)" in ascii_line_chart({})


class TestExport:
    def test_csv_roundtrip_columns(self):
        text = rows_to_csv(SAMPLE_ROWS)
        header = text.splitlines()[0]
        assert header.split(",") == ["protocol", "n", "throughput_tps", "avg_latency_ms"]
        assert len(text.splitlines()) == 3

    def test_json_roundtrip(self):
        data = json.loads(rows_to_json(SAMPLE_ROWS))
        assert data[1]["protocol"] == "hotstuff-1"

    def test_write_rows_csv_and_json(self, tmp_path):
        csv_path = write_rows(SAMPLE_ROWS, str(tmp_path / "out.csv"))
        json_path = write_rows(SAMPLE_ROWS, str(tmp_path / "out.json"))
        assert os.path.exists(csv_path) and os.path.exists(json_path)
        assert "hotstuff-1" in open(csv_path).read()
        assert json.loads(open(json_path).read())[0]["n"] == 4


class TestCli:
    def test_parser_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_every_figure_name_is_registered(self):
        expected = {
            "fig8-scalability",
            "fig8-batching",
            "fig8-geo-ycsb",
            "fig8-geo-tpcc",
            "fig9-delay",
            "fig9-geo",
            "fig10-slowness",
            "fig10-tailfork",
            "fig10-rollback",
            "latency-breakdown",
            "ablation-slotting",
            "chaos-recovery",
            "chaos-fuzz",
            "snapshot-recovery",
        }
        assert set(FIGURES) == expected

    def test_run_command_prints_summary(self, capsys):
        exit_code = main(
            ["run", "--protocol", "hotstuff-1", "--replicas", "4", "--batch", "10",
             "--duration", "0.15", "--warmup", "0.03"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "hotstuff-1" in captured.out
        assert "throughput_tps" in captured.out

    def test_predict_command_prints_model(self, capsys):
        exit_code = main(["predict", "--replicas", "16", "--batch", "100"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Analytic model" in captured.out
        assert "hotstuff-1" in captured.out

    def test_compare_command_runs_all_protocols(self, capsys):
        exit_code = main(
            ["compare", "--replicas", "4", "--batch", "10", "--duration", "0.15", "--warmup", "0.03"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for protocol in ("hotstuff", "hotstuff-2", "hotstuff-1", "hotstuff-1-slotting"):
            assert protocol in captured.out

    def test_figure_command_exports_rows(self, tmp_path, capsys):
        out = str(tmp_path / "rows.json")
        exit_code = main(["figure", "latency-breakdown", "--duration", "0.15", "--out", out])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert os.path.exists(out)
        assert "latency-breakdown" in captured.out

    def test_figure_command_with_repeats_adds_aggregate_columns(self, tmp_path, capsys):
        out = str(tmp_path / "rows.json")
        exit_code = main(
            ["figure", "ablation-slotting", "--duration", "0.2", "--repeats", "2",
             "--jobs", "2", "--seed", "3", "--out", out]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "±" in captured.out
        rows = json.loads(open(out).read())
        assert all(row["repeats"] == 2 for row in rows)
        assert "avg_latency_ms_std" in rows[0]

    def test_grid_command_lists_runs_without_executing(self, capsys):
        exit_code = main(["grid", "fig8-scalability", "--repeats", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        # quick grid: 3 replica counts x 4 protocols x 2 repeats
        assert "24 runs" in captured.out
        assert "seed" in captured.out

    def test_suite_command_runs_config_file(self, tmp_path, capsys):
        config = {
            "name": "smoke",
            "scenarios": [
                {
                    "name": "tiny-scalability",
                    "kind": "scalability",
                    "protocols": ["hotstuff-1"],
                    "axes": {"n": [4]},
                    "params": {"batch_size": 10, "duration": 0.15, "warmup": 0.03},
                }
            ],
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        out_dir = str(tmp_path / "results")
        exit_code = main(
            ["suite", "--config", str(path), "--out-dir", out_dir, "--format", "csv"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tiny-scalability" in captured.out
        assert os.path.exists(os.path.join(out_dir, "tiny-scalability.csv"))

    def test_suite_command_rejects_unknown_figure(self, capsys):
        exit_code = main(["suite", "fig99-bogus"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown figure" in captured.err
