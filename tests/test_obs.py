"""Unit and integration tests for the tracing layer (:mod:`repro.obs`).

Covers the span primitives (nesting, attributes, counters, error
capture), tracer mechanics (emit, adopt/grafting, record cap, JSONL
round-trip), the disabled fast path, the report renderers, and the two
integration surfaces: a real flow run producing the per-stage span
tree, and the CLI ``--trace`` / ``trace`` / ``stats`` commands.
"""

import json

import pytest

from repro import obs
from repro.flow.cli import main as cli_main
from repro.flow.flow import DesignFlow, FlowOptions
from tests.test_flow import COUNTER_VHDL


def by_name(records, name):
    return [r for r in records if r["name"] == name]


# ---------------------------------------------------------------------------
# Span primitives
# ---------------------------------------------------------------------------

class TestSpan:
    def test_nesting_builds_parent_links(self):
        with obs.capture() as tr:
            with obs.span("outer", a=1) as outer:
                with obs.span("inner") as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
            assert obs.current_span() is None
        recs = tr.export()
        assert [r["name"] for r in recs] == ["inner", "outer"]
        inner_rec, outer_rec = recs
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"a": 1}
        assert outer_rec["seconds"] >= inner_rec["seconds"] >= 0.0
        assert outer_rec["t_wall"] > 0

    def test_attrs_counters_and_gauges(self):
        with obs.capture() as tr:
            with obs.span("work", kind="test") as sp:
                sp.set_attr(qor=3.5, ok=True)
                sp.incr("moves")
                sp.incr("moves", 4)
                sp.gauge("temp", 2.5)
                sp.gauge("temp", 1.25)
                # Module-level helpers hit the innermost open span.
                obs.incr("moves")
                obs.gauge("width", 8)
        (rec,) = tr.export()
        assert rec["attrs"] == {"kind": "test", "qor": 3.5, "ok": True}
        assert rec["counters"] == {"moves": 6, "temp": 1.25, "width": 8}

    def test_exception_recorded_and_propagated(self):
        with obs.capture() as tr:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("nope")
        (rec,) = tr.export()
        assert rec["attrs"]["error"] == "ValueError"

    def test_incr_outside_any_span_is_noop(self):
        obs.incr("nothing")
        obs.gauge("nothing", 1)


class TestDisabled:
    def test_disabled_spans_record_nothing(self):
        with obs.capture() as tr:
            obs.set_enabled(False)
            try:
                sp = obs.span("invisible", x=1)
                assert sp is obs.NOOP_SPAN
                with sp:
                    sp.set_attr(y=2)
                    sp.incr("c")
                assert obs.emit("also-invisible") is None
            finally:
                obs.set_enabled(True)
            with obs.span("visible"):
                pass
        assert [r["name"] for r in tr.export()] == ["visible"]


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------

class TestTracer:
    def test_emit_parents_under_current_span(self):
        with obs.capture() as tr:
            with obs.span("batch") as sp:
                sid = obs.emit("job", seconds=0.5, outcome="cached")
            assert sid is not None
        job = by_name(tr.export(), "job")[0]
        assert job["parent_id"] == sp.span_id
        assert job["seconds"] == 0.5
        assert job["attrs"]["outcome"] == "cached"

    def test_adopt_grafts_worker_roots(self):
        worker = obs.Tracer()
        with obs.capture(worker):
            with obs.span("w.root"):
                with obs.span("w.child"):
                    pass
        with obs.capture() as tr:
            with obs.span("job") as sp:
                obs.adopt(worker.export(), parent_id=sp.span_id)
        recs = tr.export()
        root = by_name(recs, "w.root")[0]
        child = by_name(recs, "w.child")[0]
        assert root["parent_id"] == sp.span_id
        assert child["parent_id"] == root["span_id"]

    def test_ids_unique_across_tracers(self):
        a, b = obs.Tracer(), obs.Tracer()
        with obs.capture(a):
            with obs.span("x"):
                pass
        with obs.capture(b):
            with obs.span("x"):
                pass
        ids = {r["span_id"] for r in a.export() + b.export()}
        assert len(ids) == 2

    def test_record_cap_counts_drops(self):
        tr = obs.Tracer(max_records=2)
        with obs.capture(tr):
            for i in range(5):
                obs.emit("e", i=i)
        assert len(tr) == 2 and tr.dropped == 3
        tr.clear()
        assert len(tr) == 0 and tr.dropped == 0

    def test_jsonl_roundtrip(self, tmp_path):
        with obs.capture() as tr:
            with obs.span("stage", circuit="c1", cache_hit=False) as sp:
                sp.incr("n", 3)
        path = tmp_path / "t.jsonl"
        assert tr.write_jsonl(path) == 1
        back = obs.load_jsonl(path)
        assert back == tr.export()

    def test_capture_isolates_the_default_tracer(self):
        before = len(obs.default_tracer())
        with obs.capture():
            with obs.span("inside"):
                pass
        assert len(obs.default_tracer()) == before


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReports:
    def _sample(self):
        with obs.capture() as tr:
            with obs.span("flow.run"):
                with obs.span("flow.synthesis", cache_hit=False):
                    pass
                with obs.span("flow.synthesis", cache_hit=True):
                    pass
                obs.emit("exp.job", outcome="retry:timeout")
        return tr.export()

    def test_render_tree_shape(self):
        recs = self._sample()
        text = obs.render_tree(recs)
        lines = text.splitlines()
        assert lines[0].startswith("flow.run")
        assert sum(1 for ln in lines if "flow.synthesis" in ln) == 2
        assert "[miss]" in text and "[hit]" in text
        assert any(ln.startswith(("|- ", "`- ")) for ln in lines[1:])

    def test_orphan_parents_become_roots(self):
        recs = [{"span_id": "x:1", "parent_id": "gone", "name": "lost",
                 "t_wall": 1.0, "seconds": 0.1, "attrs": {},
                 "counters": {}}]
        assert obs.render_tree(recs).startswith("lost")
        assert obs.render_tree([]) == "(empty trace)"

    def test_aggregate_counts_hits_and_errors(self):
        rows = {r["span"]: r for r in obs.aggregate(self._sample())}
        synth = rows["flow.synthesis"]
        assert synth["count"] == 2
        assert synth["hits"] == 1 and synth["misses"] == 1
        assert rows["exp.job"]["errors"] == 1
        assert rows["flow.run"]["errors"] == 0

    def test_render_stats_table(self):
        text = obs.render_stats(self._sample())
        assert "span" in text.splitlines()[0]
        assert "flow.synthesis" in text and "1/1" in text
        assert obs.render_stats([]) == "(empty trace)"

    @pytest.mark.parametrize("s,expect", [
        (2.5, "2.50s"), (0.0123, "12.3ms"), (4.2e-5, "42us"),
        (0.0, "0s"),
    ])
    def test_format_seconds(self, s, expect):
        assert obs.format_seconds(s) == expect


class TestRendererEdgeCases:
    """Degenerate traces the renderers must survive verbatim."""

    @staticmethod
    def rec(**kw):
        base = {"span_id": "t:1", "parent_id": None, "name": "s",
                "t_wall": 1.0, "seconds": 0.0, "attrs": {},
                "counters": {}}
        base.update(kw)
        return base

    def test_zero_duration_span(self):
        recs = [self.rec(name="instant", seconds=0.0)]
        assert "instant  0s" in obs.render_tree(recs)
        stats = obs.render_stats(recs)
        assert "instant" in stats and "0s" in stats

    def test_span_with_no_attributes(self):
        recs = [self.rec(name="bare", attrs={}, counters={})]
        line = obs.render_tree(recs).splitlines()[0]
        assert line == "bare  0s"       # no trailing k=v noise

    def test_missing_optional_fields(self):
        # A record written by an older tracer: no attrs/counters keys,
        # seconds None.
        recs = [{"span_id": "t:1", "parent_id": None, "name": "old",
                 "t_wall": 1.0, "seconds": None}]
        recs[0].pop("seconds")
        assert obs.render_tree(recs).startswith("old")
        assert obs.aggregate(recs)[0]["count"] == 1

    def test_unicode_labels_roundtrip(self, tmp_path):
        with obs.capture() as tr:
            with obs.span("flow.synthèse", circuit="càé-フロー") as sp:
                sp.incr("движения", 2)
        path = tmp_path / "u.jsonl"
        tr.write_jsonl(path)
        recs = obs.load_jsonl(path)
        tree = obs.render_tree(recs)
        assert "flow.synthèse" in tree and "càé-フロー" in tree
        assert "движения=2" in tree
        assert "flow.synthèse" in obs.render_stats(recs)

    def test_single_span_tree_has_no_branch_glyphs(self):
        recs = [self.rec(name="solo", seconds=1.0)]
        tree = obs.render_tree(recs)
        assert tree == "solo  1.00s"
        assert "|-" not in tree and "`-" not in tree


# ---------------------------------------------------------------------------
# Integration: flow and CLI
# ---------------------------------------------------------------------------

class TestFlowTracing:
    def test_flow_emits_stage_tree_with_qor(self, tmp_path):
        options = FlowOptions(seed=1, use_cache=True, cache_dir=tmp_path)
        with obs.capture() as tr:
            DesignFlow(options).run(COUNTER_VHDL)
        recs = tr.export()
        names = {r["name"] for r in recs}
        assert {"flow.run", "flow.synthesis", "flow.translation",
                "flow.place_route", "flow.timing", "flow.power",
                "flow.bitstream", "place.anneal",
                "route.pathfinder"} <= names
        run = by_name(recs, "flow.run")[0]
        assert run["parent_id"] is None
        assert run["attrs"]["circuit"] == "counter"
        assert run["attrs"]["luts"] > 0
        assert run["attrs"]["channel_width"] > 0
        pr = by_name(recs, "flow.place_route")[0]
        assert pr["parent_id"] == run["span_id"]
        assert pr["attrs"]["cache_hit"] is False
        anneal = by_name(recs, "place.anneal")[0]
        assert anneal["parent_id"] == pr["span_id"]
        assert anneal["attrs"]["moves"] > 0

        # Warm re-run: same stages, now cache hits.
        with obs.capture() as tr2:
            DesignFlow(options).run(COUNTER_VHDL)
        pr2 = by_name(tr2.export(), "flow.place_route")[0]
        assert pr2["attrs"]["cache_hit"] is True


class TestCli:
    def test_trace_flag_then_trace_and_stats(self, tmp_path, capsys):
        vhd = tmp_path / "counter.vhd"
        vhd.write_text(COUNTER_VHDL)
        trace = tmp_path / "run.jsonl"
        assert cli_main(["flow", str(vhd), "--no-cache",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        recs = obs.load_jsonl(trace)
        assert by_name(recs, "flow.run")

        assert cli_main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("flow.run")
        assert "flow.place_route" in out

        assert cli_main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "flow.place_route" in out and "span" in out

    def test_env_var_enables_tracing(self, tmp_path, monkeypatch,
                                     capsys):
        vhd = tmp_path / "counter.vhd"
        vhd.write_text(COUNTER_VHDL)
        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert cli_main(["flow", str(vhd), "--no-cache",
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        assert by_name(obs.load_jsonl(trace), "flow.run")

    def test_flow_honours_no_cache_env(self, tmp_path, monkeypatch,
                                       capsys):
        # REPRO_NO_CACHE switches the flow's stage cache off as it does
        # the engine's: a second run recomputes every stage.
        vhd = tmp_path / "counter.vhd"
        vhd.write_text(COUNTER_VHDL)
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        for run in ("first", "second"):
            trace = tmp_path / f"{run}.jsonl"
            assert cli_main(["flow", str(vhd), "--trace", str(trace),
                             "--no-run-db"]) == 0
        capsys.readouterr()
        stages = [r for r in obs.load_jsonl(trace)
                  if "cache_hit" in r["attrs"]]
        assert len(stages) == 5
        assert not any(r["attrs"]["cache_hit"] for r in stages)
        assert not cache.exists()

    @pytest.mark.parametrize("cmd", ["trace", "stats"])
    def test_missing_trace_file_exits_two(self, tmp_path, capsys, cmd):
        rc = cli_main([cmd, str(tmp_path / "absent.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot read trace file" in err

    @pytest.mark.parametrize("cmd", ["trace", "stats"])
    def test_empty_trace_file_exits_two(self, tmp_path, capsys, cmd):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = cli_main([cmd, str(path)])
        assert rc == 2
        assert "contains no spans" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["trace", "stats"])
    def test_truncated_trace_file_exits_two(self, tmp_path, capsys,
                                            cmd):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"span_id": "a:1", "name": "ok", '
                        '"parent_id": null, "t_wall": 1.0, '
                        '"seconds": 0.1, "attrs": {}, "counters": {}}\n'
                        '{"span_id": "a:2", "name": "trunc')
        rc = cli_main([cmd, str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "truncated or corrupt" in err

    def test_non_object_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        rc = cli_main(["trace", str(path)])
        assert rc == 2
        assert "not a span record" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def exp_trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("exp_trace")
        trace = tmp / "exp.jsonl"
        assert cli_main(["exp", "table2", "--dt", "8e-12",
                        "--cache-dir", str(tmp / "cache"),
                        "--trace", str(trace)]) == 0
        return obs.load_jsonl(trace)

    def test_exp_trace_records_batch(self, exp_trace):
        # Every job span is grafted under its batch span.
        batch = by_name(exp_trace, "exp.batch")[0]
        jobs = by_name(exp_trace, "exp.job")
        assert jobs
        assert all(j["parent_id"] == batch["span_id"] for j in jobs)

    def test_exp_trace_batched_impl_single_job(self, exp_trace):
        # The batched engine folds table2 into one job.
        batch = by_name(exp_trace, "exp.batch")[0]
        assert batch["attrs"]["n_jobs"] == 1
        assert len(by_name(exp_trace, "exp.job")) == 1


# ---------------------------------------------------------------------------
# Atomic JSONL export
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def _tracer(self, label):
        with obs.capture() as tr:
            with obs.span("stage", label=label):
                pass
        return tr

    def test_failed_replace_keeps_previous_file(self, tmp_path,
                                                monkeypatch):
        path = tmp_path / "t.jsonl"
        self._tracer("old").write_jsonl(path)
        before = path.read_text()

        import os as _os
        real_replace = _os.replace

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(OSError):
            self._tracer("new").write_jsonl(path)
        monkeypatch.setattr(_os, "replace", real_replace)

        # Previous export intact, no temp-file litter.
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_no_temp_files_after_success(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._tracer("x").write_jsonl(path)
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# Chrome trace-event conversion
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def _records(self):
        with obs.capture() as tr:
            with obs.span("flow.run", circuit="c17") as sp:
                sp.incr("luts", 12)
                with obs.span("flow.place"):
                    pass
                obs.emit("flow.note", level="info")
        return tr.export()

    def test_events_cover_every_record(self):
        recs = self._records()
        events = obs.chrome_trace_events(recs)
        data = [e for e in events if e["ph"] != "M"]
        assert len(data) == len(recs)
        by_name = {e["name"]: e for e in data}
        run = by_name["flow.run"]
        assert run["ph"] == "X" and run["dur"] > 0
        assert run["ts"] > 0
        assert run["args"]["circuit"] == "c17"
        assert run["args"]["counter.luts"] == 12
        # zero-duration emit becomes a thread-scoped instant
        note = by_name["flow.note"]
        assert note["ph"] == "i" and note["s"] == "t"

    def test_metadata_names_process_and_threads(self):
        events = obs.chrome_trace_events(self._records())
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "repro-flow"
        assert all(e["name"] in ("process_name", "thread_name")
                   for e in meta)
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        named = {e["tid"] for e in meta if e["name"] == "thread_name"}
        assert tids <= named

    def test_sorted_by_timestamp(self):
        events = obs.chrome_trace_events(self._records())
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_deterministic_for_same_input(self):
        recs = self._records()
        assert obs.chrome_trace_events(recs) \
            == obs.chrome_trace_events(recs)

    def test_write_chrome_trace_file(self, tmp_path):
        path = tmp_path / "t.chrome.json"
        n = obs.write_chrome_trace(self._records(), path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == n
        assert list(tmp_path.iterdir()) == [path]

    def test_cli_trace_chrome_format(self, tmp_path, capsys):
        src = tmp_path / "t.jsonl"
        with obs.capture() as tr:
            with obs.span("flow.run"):
                pass
        tr.write_jsonl(src)
        out = tmp_path / "out.json"
        assert cli_main(["trace", str(src), "--format", "chrome",
                         "-o", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "flow.run" in names

    def test_cli_default_output_path(self, tmp_path, capsys,
                                     monkeypatch):
        src = tmp_path / "t.jsonl"
        with obs.capture() as tr:
            with obs.span("flow.run"):
                pass
        tr.write_jsonl(src)
        assert cli_main(["trace", str(src), "--format",
                         "chrome"]) == 0
        capsys.readouterr()
        assert (tmp_path / "t.chrome.json").exists()
