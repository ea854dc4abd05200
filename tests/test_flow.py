"""Tests for the integrated flow, GUI, CLI and tool standalone use."""

import json
from pathlib import Path

import pytest

from repro.bench import counter
from repro.flow import (DesignFlow, FlowGui, FlowOptions, render_html,
                        render_text)
from repro.flow.cli import main as cli_main

COUNTER_VHDL = """
entity counter is
  port (clk, rst, en : in std_logic;
        q : out std_logic_vector(3 downto 0));
end entity;
architecture rtl of counter is
  signal cnt, nxt : std_logic_vector(3 downto 0);
  signal c1, c2 : std_logic;
begin
  nxt(0) <= not cnt(0);
  c1 <= cnt(0);
  nxt(1) <= cnt(1) xor c1;
  c2 <= cnt(1) and c1;
  nxt(2) <= cnt(2) xor c2;
  nxt(3) <= cnt(3) xor (cnt(2) and c2);
  q <= cnt;
  process(clk) begin
    if rising_edge(clk) then
      if rst = '1' then cnt <= "0000";
      elsif en = '1' then cnt <= nxt;
      end if;
    end if;
  end process;
end architecture;
"""


@pytest.fixture(scope="module")
def counter_result():
    return DesignFlow(FlowOptions(seed=2)).run(COUNTER_VHDL)


class TestFlow:
    def test_all_stages_produce_results(self, counter_result):
        r = counter_result
        assert r.structural is not None
        assert r.logic is not None and r.mapped is not None
        assert r.clustered is not None and r.placement is not None
        assert r.routing is not None and r.routing.success
        assert r.timing is not None and r.power is not None
        assert len(r.bitstream) > 0

    def test_summary_fields(self, counter_result):
        s = counter_result.summary()
        for key in ("circuit", "luts", "ffs", "clbs", "grid",
                    "channel_width", "fmax_MHz", "total_mW",
                    "bitstream_bytes"):
            assert key in s

    def test_stage_timings_recorded(self, counter_result):
        assert set(counter_result.stage_seconds) >= {
            "synthesis", "translation", "place_route", "power",
            "bitstream"}

    def test_flow_preserves_behaviour(self, counter_result):
        # The mapped network must still count.
        net = counter_result.mapped
        vecs = [{"rst": 1, "en": 1}] + [{"rst": 0, "en": 1}] * 6
        outs = net.simulate(vecs)
        val = lambda o: (o["q_0"] + 2 * o["q_1"] + 4 * o["q_2"]
                         + 8 * o["q_3"])
        assert [val(o) for o in outs[2:]] == [1, 2, 3, 4, 5]

    def test_syntax_error_stops_flow(self):
        with pytest.raises(ValueError):
            DesignFlow().run("entity broken is port (")

    def test_artifacts_written(self, tmp_path):
        DesignFlow(FlowOptions(work_dir=str(tmp_path), seed=2)).run(
            COUNTER_VHDL)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"design.vhd", "diviner.edif", "druid.edif",
                "e2fmt.blif", "sis_mapped.blif", "tvpack.net",
                "dutys.arch", "vpr.place", "vpr.route",
                "powermodel.json", "design.bit"} <= names

    def test_flow_from_logic(self):
        res = DesignFlow(FlowOptions(seed=1)).run(counter(6))
        assert res.routing.success and res.bitstream


class TestGui:
    def test_run_and_render(self):
        gui = FlowGui()
        flow = DesignFlow(FlowOptions(seed=2))
        res = gui.run(flow, COUNTER_VHDL, echo=lambda *_: None)
        text = render_text(gui)
        assert all(s in text for s in DesignFlow.STAGES)
        assert "[x]" in text and "[ ]" not in text
        html = render_html(res, gui)
        assert "<html" in html and "counter" in html

    def test_failure_marked(self):
        gui = FlowGui()
        flow = DesignFlow()
        with pytest.raises(Exception):
            gui.run(flow, "entity x is port (", echo=lambda *_: None)
        assert gui.status["File Upload"] == "failed"

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            FlowGui().set("Coffee", "done")


class TestCli:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_vhdlparse(self, tmp_path, capsys):
        src = self._write(tmp_path, "c.vhd", COUNTER_VHDL)
        assert cli_main(["vhdlparse", src]) == 0
        assert "syntax OK" in capsys.readouterr().out

    def test_vhdlparse_bad(self, tmp_path, capsys):
        src = self._write(tmp_path, "bad.vhd", "entity x is port(")
        assert cli_main(["vhdlparse", src]) == 1

    def test_tool_chain_standalone(self, tmp_path, capsys):
        """Each tool run separately, files handed between them."""
        src = self._write(tmp_path, "c.vhd", COUNTER_VHDL)
        edif = str(tmp_path / "c.edif")
        edif2 = str(tmp_path / "c2.edif")
        blif = str(tmp_path / "c.blif")
        mapped = str(tmp_path / "m.blif")
        netf = str(tmp_path / "c.net")
        archf = str(tmp_path / "fpga.arch")
        assert cli_main(["diviner", src, "-o", edif]) == 0
        assert cli_main(["druid", edif, "-o", edif2]) == 0
        assert cli_main(["e2fmt", edif2, "-o", blif]) == 0
        assert cli_main(["sis", blif, "-o", mapped, "-k", "4"]) == 0
        assert cli_main(["tvpack", mapped, "-o", netf]) == 0
        assert cli_main(["dutys", "-o", archf]) == 0
        for f in (edif, edif2, blif, mapped, netf, archf):
            assert Path(f).stat().st_size > 0

    def test_vpr_subcommand(self, tmp_path, capsys):
        from repro.netlist.blif import save_blif
        blif = str(tmp_path / "cnt.blif")
        save_blif(counter(6), blif)
        assert cli_main(["vpr", blif, "--workdir",
                         str(tmp_path / "out")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["channel_width"] >= 1

    def test_full_flow_subcommand(self, tmp_path, capsys):
        src = self._write(tmp_path, "c.vhd", COUNTER_VHDL)
        html = str(tmp_path / "gui.html")
        assert cli_main(["flow", src, "--workdir",
                         str(tmp_path / "w"), "--html", html]) == 0
        assert Path(html).read_text().startswith("<!DOCTYPE html>")
