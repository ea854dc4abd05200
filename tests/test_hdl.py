"""Tests for the VHDL front end: lexer, parser, DIVINER synthesis."""

import time

import pytest

from repro.hdl.lexer import VhdlLexError, tokenize
from repro.hdl.parser import (MAX_VECTOR_WIDTH, VhdlSyntaxError,
                              check_syntax, parse_vhdl)
from repro.hdl.synth import SynthesisError, synthesize
from repro.tools import druid, structural_to_logic


def synth_logic(vhdl):
    return structural_to_logic(druid(synthesize(vhdl)))


MINIMAL = """
entity t is
  port (a, b : in std_logic; y : out std_logic);
end entity;
architecture rtl of t is
begin
  y <= a and b;
end architecture;
"""


class TestLexer:
    def test_case_insensitive_keywords(self):
        toks = tokenize("ENTITY foo IS")
        assert [t.kind for t in toks] == ["keyword", "id", "keyword"]
        assert toks[0].value == "entity"

    def test_comments_stripped(self):
        toks = tokenize("a -- this is a comment\nb")
        assert [t.value for t in toks] == ["a", "b"]

    def test_char_and_string_literals(self):
        toks = tokenize("x <= '1'; v <= \"0101\";")
        kinds = [t.kind for t in toks]
        assert "char" in kinds and "string" in kinds

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1
        assert toks[1].line == 2 and toks[1].col == 3

    def test_unterminated_string(self):
        with pytest.raises(VhdlLexError):
            tokenize('x <= "01')

    def test_unexpected_character(self):
        with pytest.raises(VhdlLexError):
            tokenize("a <= b ? c")


class TestParser:
    def test_check_syntax_ok(self):
        ok, msg = check_syntax(MINIMAL)
        assert ok and "1 entity" in msg

    def test_check_syntax_error_message(self):
        ok, msg = check_syntax("entity t is port (a : in std_logic)")
        assert not ok and "syntax error" in msg

    def test_vector_range_directions(self):
        src = MINIMAL.replace("a, b : in std_logic",
                              "a, b : in std_logic_vector(3 downto 0)")
        src = src.replace("y : out std_logic",
                          "y : out std_logic_vector(3 downto 0)")
        design = parse_vhdl(src)
        port = design.entities["t"].ports[0]
        assert port.width == 4 and port.msb == 3

    def test_empty_range_rejected(self):
        bad = MINIMAL.replace("in std_logic;",
                              "in std_logic_vector(0 downto 3);", 1)
        with pytest.raises(VhdlSyntaxError):
            parse_vhdl(bad)

    def test_vector_width_bounded_at_parse_time(self):
        # Synthesis builds one net per bit: a hostile width must fail
        # in the parser, naming the width and the limit, at once.
        widest = MINIMAL.replace(
            "in std_logic;",
            f"in std_logic_vector({MAX_VECTOR_WIDTH - 1} downto 0);", 1)
        assert parse_vhdl(widest).entities["t"].ports[0].width \
            == MAX_VECTOR_WIDTH
        for decl in (f"std_logic_vector({MAX_VECTOR_WIDTH} downto 0)",
                     "std_logic_vector(0 to 99999999)",
                     "std_logic_vector(99999999 downto 0)"):
            bad = MINIMAL.replace("in std_logic;", f"in {decl};", 1)
            t0 = time.perf_counter()
            with pytest.raises(VhdlSyntaxError,
                               match=rf"width \d+ exceeds the limit "
                                     rf"of {MAX_VECTOR_WIDTH} bits"):
                parse_vhdl(bad)
            assert time.perf_counter() - t0 < 1.0

    def test_hostile_width_fails_the_flow_fast(self):
        from repro import api
        bad = MINIMAL.replace(
            "in std_logic;", "in std_logic_vector(99999999 downto 0);", 1)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="100000000 exceeds"):
            api.submit(api.JobRequest(kind="flow", vhdl=bad),
                       config=api.Config.from_env(cache=False))
        assert time.perf_counter() - t0 < 1.0

    def test_unsupported_type(self):
        bad = MINIMAL.replace("in std_logic;", "in integer;", 1)
        with pytest.raises(VhdlSyntaxError):
            parse_vhdl(bad)

    def test_library_use_skipped(self):
        src = "library ieee;\nuse ieee.std_logic_1164.all;\n" + MINIMAL
        assert check_syntax(src)[0]

    def test_clk_event_form(self):
        src = """
entity t is port (clk, d : in std_logic; q : out std_logic); end;
architecture rtl of t is begin
  process(clk) begin
    if clk'event and clk = '1' then q <= d; end if;
  end process;
end;
"""
        assert check_syntax(src)[0]


class TestSynthesis:
    def test_and_gate(self):
        logic = synth_logic(MINIMAL)
        out = logic.simulate([{"a": 1, "b": 1}, {"a": 1, "b": 0}])
        assert [o["y"] for o in out] == [1, 0]

    def test_operator_matrix(self):
        for op, table in [
            ("and", [0, 0, 0, 1]), ("or", [0, 1, 1, 1]),
            ("nand", [1, 1, 1, 0]), ("nor", [1, 0, 0, 0]),
            ("xor", [0, 1, 1, 0]), ("xnor", [1, 0, 0, 1]),
        ]:
            logic = synth_logic(MINIMAL.replace("a and b", f"a {op} b"))
            vecs = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
            got = [o["y"] for o in logic.simulate(vecs)]
            want = [table[2 * v["a"] + v["b"]] for v in vecs]
            assert got == want, op

    def test_not_and_parentheses(self):
        logic = synth_logic(MINIMAL.replace("a and b",
                                            "not (a and b)"))
        out = logic.simulate([{"a": 1, "b": 1}])
        assert out[0]["y"] == 0

    def test_conditional_assignment(self):
        src = """
entity t is port (s, a, b : in std_logic; y : out std_logic); end;
architecture rtl of t is begin
  y <= a when s = '1' else b;
end;
"""
        logic = synth_logic(src)
        out = logic.simulate([{"s": 1, "a": 1, "b": 0},
                              {"s": 0, "a": 1, "b": 0}])
        assert [o["y"] for o in out] == [1, 0]

    def test_selected_assignment(self):
        src = """
entity t is port (s : in std_logic_vector(1 downto 0);
                  y : out std_logic); end;
architecture rtl of t is begin
  with s select y <= '1' when "00", '1' when "11", '0' when others;
end;
"""
        logic = synth_logic(src)
        vecs = [{"s_1": h, "s_0": l} for h in (0, 1) for l in (0, 1)]
        got = [o["y"] for o in logic.simulate(vecs)]
        assert got == [1, 0, 0, 1]

    def test_vector_elementwise_ops(self):
        src = """
entity t is port (a, b : in std_logic_vector(2 downto 0);
                  y : out std_logic_vector(2 downto 0)); end;
architecture rtl of t is begin
  y <= a xor b;
end;
"""
        logic = synth_logic(src)
        out = logic.simulate([{"a_2": 1, "a_1": 0, "a_0": 1,
                               "b_2": 0, "b_1": 0, "b_0": 1}])
        assert (out[0]["y_2"], out[0]["y_1"], out[0]["y_0"]) == (1, 0, 0)

    def test_concat_and_vector_literal(self):
        src = """
entity t is port (a : in std_logic;
                  y : out std_logic_vector(2 downto 0)); end;
architecture rtl of t is begin
  y <= a & "10";
end;
"""
        logic = synth_logic(src)
        out = logic.simulate([{"a": 1}])
        assert (out[0]["y_2"], out[0]["y_1"], out[0]["y_0"]) == (1, 1, 0)

    def test_register_with_hold(self):
        src = """
entity t is port (clk, en, d : in std_logic; q : out std_logic); end;
architecture rtl of t is
  signal r : std_logic;
begin
  q <= r;
  process(clk) begin
    if rising_edge(clk) then
      if en = '1' then r <= d; end if;
    end if;
  end process;
end;
"""
        logic = synth_logic(src)
        out = logic.simulate([
            {"en": 1, "d": 1}, {"en": 0, "d": 0}, {"en": 0, "d": 0},
        ])
        # After loading 1 it must hold despite d=0 while en=0.
        assert [o["q"] for o in out] == [0, 1, 1]

    def test_width_mismatch_rejected(self):
        src = """
entity t is port (a : in std_logic_vector(3 downto 0);
                  y : out std_logic); end;
architecture rtl of t is begin
  y <= a;
end;
"""
        with pytest.raises(SynthesisError):
            synthesize(src)

    def test_assign_to_input_rejected(self):
        src = MINIMAL.replace("y <= a and b;", "a <= b;")
        with pytest.raises(SynthesisError):
            synthesize(src)

    def test_unknown_signal_rejected(self):
        src = MINIMAL.replace("a and b", "a and ghost")
        with pytest.raises(SynthesisError):
            synthesize(src)

    def test_index_out_of_range(self):
        src = """
entity t is port (a : in std_logic_vector(3 downto 0);
                  y : out std_logic); end;
architecture rtl of t is begin
  y <= a(7);
end;
"""
        with pytest.raises(SynthesisError):
            synthesize(src)
