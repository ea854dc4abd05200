"""Recursive-descent parser for the synthesisable VHDL subset.

This is the "VHDL Parser" tool of the paper's flow: it performs syntax
checking of VHDL input files and (beyond the original, which only
reported syntax validity) produces the AST the DIVINER synthesiser
consumes.

Supported subset (documented in the README):

* ``entity`` with a port clause of ``std_logic`` /
  ``std_logic_vector(M downto N)`` ports (at most
  :data:`MAX_VECTOR_WIDTH` bits), directions ``in``/``out``;
* ``architecture`` with signal declarations of the same types;
* concurrent signal assignments with the VHDL logical operators,
  ``not``, parentheses, indexing, concatenation ``&``, character and
  string literals;
* conditional assignments ``... when cond else ...`` and selected
  assignments ``with sel select ...``;
* clocked processes ``if rising_edge(clk) then`` (or the classic
  ``clk'event and clk = '1'`` form) containing sequential assignments
  and ``if``/``elsif``/``else`` trees (synthesised to mux + DFF).
"""

from __future__ import annotations

from . import ast as A
from .lexer import Token, tokenize

__all__ = ["MAX_VECTOR_WIDTH", "VhdlSyntaxError", "Parser", "parse_vhdl",
           "check_syntax"]

#: Widest ``std_logic_vector`` accepted.  Synthesis builds one net per
#: bit, so an unbounded declared width is a memory and time bomb.
MAX_VECTOR_WIDTH = 1024


class VhdlSyntaxError(ValueError):
    """Syntax error with source position."""


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise VhdlSyntaxError("unexpected end of file")
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = f"{kind} {value!r}" if value else kind
            raise VhdlSyntaxError(
                f"line {tok.line}: expected {want}, got "
                f"{tok.kind} {tok.value!r}")
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if (tok is not None and tok.kind == kind
                and (value is None or tok.value == value)):
            self.pos += 1
            return tok
        return None

    # -- top level -------------------------------------------------------
    def parse_design_file(self) -> A.DesignFile:
        design = A.DesignFile()
        while self.peek() is not None:
            tok = self.peek()
            if tok.kind == "keyword" and tok.value == "library":
                self._skip_to_semicolon()
            elif tok.kind == "keyword" and tok.value == "use":
                self._skip_to_semicolon()
            elif tok.kind == "keyword" and tok.value == "entity":
                ent = self.parse_entity()
                design.entities[ent.name] = ent
            elif tok.kind == "keyword" and tok.value == "architecture":
                design.architectures.append(self.parse_architecture())
            else:
                raise VhdlSyntaxError(
                    f"line {tok.line}: unexpected {tok.value!r} at top "
                    f"level")
        return design

    def _skip_to_semicolon(self) -> None:
        while True:
            tok = self.next()
            if tok.kind == "symbol" and tok.value == ";":
                return

    # -- entity ------------------------------------------------------------
    def parse_entity(self) -> A.Entity:
        self.expect("keyword", "entity")
        name = self.expect("id").value
        self.expect("keyword", "is")
        ports: list[A.PortDecl] = []
        if self.accept("keyword", "port"):
            self.expect("symbol", "(")
            ports.append(self.parse_port_decl())
            while self.accept("symbol", ";"):
                ports.append(self.parse_port_decl())
            self.expect("symbol", ")")
            self.expect("symbol", ";")
        self.expect("keyword", "end")
        self.accept("keyword", "entity")
        self.accept("id")      # optional repeated name
        self.expect("symbol", ";")
        return A.Entity(name, tuple(ports))

    def parse_port_decl(self) -> A.PortDecl:
        names = [self.expect("id").value]
        while self.accept("symbol", ","):
            names.append(self.expect("id").value)
        self.expect("symbol", ":")
        dir_tok = self.next()
        if dir_tok.value not in ("in", "out"):
            raise VhdlSyntaxError(
                f"line {dir_tok.line}: expected port direction, got "
                f"{dir_tok.value!r}")
        width, msb, lsb = self.parse_type()
        return A.PortDecl(tuple(names), dir_tok.value, width, msb, lsb)

    def parse_type(self) -> tuple[int | None, int, int]:
        tok = self.next()
        if tok.value == "std_logic":
            return None, 0, 0
        if tok.value == "std_logic_vector":
            self.expect("symbol", "(")
            hi = int(self.expect("int").value)
            dir_tok = self.next()
            if dir_tok.value not in ("downto", "to"):
                raise VhdlSyntaxError(
                    f"line {dir_tok.line}: expected downto/to")
            lo = int(self.expect("int").value)
            self.expect("symbol", ")")
            if dir_tok.value == "downto":
                msb, lsb = hi, lo
            else:
                msb, lsb = lo, hi
            if msb < lsb:
                raise VhdlSyntaxError(
                    f"line {tok.line}: empty vector range")
            width = msb - lsb + 1
            if width > MAX_VECTOR_WIDTH:
                raise VhdlSyntaxError(
                    f"line {tok.line}: vector width {width} exceeds the "
                    f"limit of {MAX_VECTOR_WIDTH} bits")
            return width, msb, lsb
        raise VhdlSyntaxError(
            f"line {tok.line}: unsupported type {tok.value!r} (subset "
            f"supports std_logic and std_logic_vector)")

    # -- architecture ---------------------------------------------------
    def parse_architecture(self) -> A.Architecture:
        self.expect("keyword", "architecture")
        name = self.expect("id").value
        self.expect("keyword", "of")
        entity = self.expect("id").value
        self.expect("keyword", "is")
        arch = A.Architecture(name, entity)
        while self.accept("keyword", "signal"):
            names = [self.expect("id").value]
            while self.accept("symbol", ","):
                names.append(self.expect("id").value)
            self.expect("symbol", ":")
            width, msb, lsb = self.parse_type()
            self.expect("symbol", ";")
            arch.signals.append(A.SignalDecl(tuple(names), width, msb, lsb))
        self.expect("keyword", "begin")
        while not (self.peek() and self.peek().kind == "keyword"
                   and self.peek().value == "end"):
            arch.statements.append(self.parse_concurrent())
        self.expect("keyword", "end")
        self.accept("keyword", "architecture")
        self.accept("id")
        self.expect("symbol", ";")
        return arch

    # -- concurrent statements ----------------------------------------------
    def parse_concurrent(self):
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == "process":
            return self.parse_process()
        if tok.kind == "keyword" and tok.value == "with":
            return self.parse_selected()
        return self.parse_assignment()

    def parse_target(self) -> A.Ref | A.Index:
        name = self.expect("id").value
        if self.accept("symbol", "("):
            idx = int(self.expect("int").value)
            self.expect("symbol", ")")
            return A.Index(name, idx)
        return A.Ref(name)

    def parse_assignment(self):
        target = self.parse_target()
        self.expect("symbol", "<=")
        first = self.parse_expr()
        if self.accept("keyword", "when"):
            arms = []
            cond = self.parse_expr()
            arms.append((first, cond))
            self.expect("keyword", "else")
            while True:
                val = self.parse_expr()
                if self.accept("keyword", "when"):
                    cond = self.parse_expr()
                    arms.append((val, cond))
                    self.expect("keyword", "else")
                else:
                    self.expect("symbol", ";")
                    return A.ConditionalAssignment(target, tuple(arms), val)
        self.expect("symbol", ";")
        return A.Assignment(target, first)

    def parse_selected(self) -> A.SelectedAssignment:
        self.expect("keyword", "with")
        selector = self.parse_expr()
        self.expect("keyword", "select")
        target = self.parse_target()
        self.expect("symbol", "<=")
        choices: list[tuple[str, A.Expr]] = []
        default: A.Expr | None = None
        while True:
            value = self.parse_expr()
            self.expect("keyword", "when")
            tok = self.next()
            if tok.kind == "keyword" and tok.value == "others":
                default = value
            elif tok.kind == "string":
                choices.append((tok.value, value))
            elif tok.kind == "char":
                choices.append((tok.value, value))
            else:
                raise VhdlSyntaxError(
                    f"line {tok.line}: expected choice literal")
            if self.accept("symbol", ";"):
                break
            self.expect("symbol", ",")
        return A.SelectedAssignment(target, selector, tuple(choices),
                                    default)

    # -- processes ------------------------------------------------------------
    def parse_process(self) -> A.ProcessStatement:
        self.expect("keyword", "process")
        sensitivity: list[str] = []
        if self.accept("symbol", "("):
            if not self.accept("keyword", "all"):
                sensitivity.append(self.expect("id").value)
                while self.accept("symbol", ","):
                    sensitivity.append(self.expect("id").value)
            self.expect("symbol", ")")
        self.accept("keyword", "is")
        self.expect("keyword", "begin")
        self.expect("keyword", "if")
        clock = self.parse_edge_condition()
        self.expect("keyword", "then")
        body = self.parse_seq_statements()
        self.expect("keyword", "end")
        self.expect("keyword", "if")
        self.expect("symbol", ";")
        self.expect("keyword", "end")
        self.expect("keyword", "process")
        self.expect("symbol", ";")
        return A.ProcessStatement(clock, tuple(body), tuple(sensitivity))

    def parse_edge_condition(self) -> str:
        tok = self.next()
        if tok.kind == "keyword" and tok.value in ("rising_edge",
                                                   "falling_edge"):
            self.expect("symbol", "(")
            clk = self.expect("id").value
            self.expect("symbol", ")")
            return clk
        if tok.kind == "id":
            # clk'event and clk = '1'
            clk = tok.value
            self.expect("symbol", "'")
            ev = self.expect("id")
            if ev.value != "event":
                raise VhdlSyntaxError(
                    f"line {ev.line}: expected 'event")
            self.expect("keyword", "and")
            again = self.expect("id")
            if again.value != clk:
                raise VhdlSyntaxError(
                    f"line {again.line}: clock name mismatch in 'event "
                    f"condition")
            self.expect("symbol", "=")
            self.expect("char")
            return clk
        raise VhdlSyntaxError(
            f"line {tok.line}: expected clock edge condition")

    def parse_seq_statements(self) -> list:
        stmts = []
        while True:
            tok = self.peek()
            if tok is None:
                raise VhdlSyntaxError("unexpected end of file in process")
            if tok.kind == "keyword" and tok.value in ("end", "elsif",
                                                       "else"):
                return stmts
            if tok.kind == "keyword" and tok.value == "if":
                stmts.append(self.parse_seq_if())
            else:
                target = self.parse_target()
                self.expect("symbol", "<=")
                expr = self.parse_expr()
                self.expect("symbol", ";")
                stmts.append(A.SeqAssign(target, expr))

    def parse_seq_if(self) -> A.IfStatement:
        self.expect("keyword", "if")
        arms = []
        cond = self.parse_expr()
        self.expect("keyword", "then")
        arms.append((cond, tuple(self.parse_seq_statements())))
        else_body: tuple = ()
        while True:
            if self.accept("keyword", "elsif"):
                cond = self.parse_expr()
                self.expect("keyword", "then")
                arms.append((cond, tuple(self.parse_seq_statements())))
            elif self.accept("keyword", "else"):
                else_body = tuple(self.parse_seq_statements())
            else:
                break
        self.expect("keyword", "end")
        self.expect("keyword", "if")
        self.expect("symbol", ";")
        return A.IfStatement(tuple(arms), else_body)

    # -- expressions -------------------------------------------------------
    _LOGICAL_OPS = ("and", "or", "nand", "nor", "xor", "xnor")

    def parse_expr(self) -> A.Expr:
        left = self.parse_relation()
        while True:
            tok = self.peek()
            if (tok is not None and tok.kind == "keyword"
                    and tok.value in self._LOGICAL_OPS):
                # Don't swallow the 'and' of a clk'event condition --
                # that path never reaches here because edge conditions
                # are parsed separately.
                op = self.next().value
                right = self.parse_relation()
                left = A.Binary(op, left, right)
            else:
                return left

    def parse_relation(self) -> A.Expr:
        left = self.parse_concat()
        tok = self.peek()
        if (tok is not None and tok.kind == "symbol"
                and tok.value in ("=", "/=")):
            op = self.next().value
            right = self.parse_concat()
            return A.Compare(op, left, right)
        return left

    def parse_concat(self) -> A.Expr:
        first = self.parse_primary()
        if not (self.peek() and self.peek().kind == "symbol"
                and self.peek().value == "&"):
            return first
        parts = [first]
        while self.accept("symbol", "&"):
            parts.append(self.parse_primary())
        return A.Concat(tuple(parts))

    def parse_primary(self) -> A.Expr:
        tok = self.next()
        if tok.kind == "keyword" and tok.value == "not":
            return A.Unary("not", self.parse_primary())
        if tok.kind == "symbol" and tok.value == "(":
            inner = self.parse_expr()
            self.expect("symbol", ")")
            return inner
        if tok.kind == "char":
            if tok.value not in "01":
                raise VhdlSyntaxError(
                    f"line {tok.line}: only '0'/'1' literals are "
                    f"synthesisable")
            return A.Literal(int(tok.value))
        if tok.kind == "string":
            if set(tok.value) - {"0", "1"}:
                raise VhdlSyntaxError(
                    f"line {tok.line}: only binary string literals are "
                    f"synthesisable")
            return A.VectorLiteral(tok.value)
        if tok.kind == "id":
            if self.accept("symbol", "("):
                idx = int(self.expect("int").value)
                self.expect("symbol", ")")
                return A.Index(tok.value, idx)
            return A.Ref(tok.value)
        raise VhdlSyntaxError(
            f"line {tok.line}: unexpected {tok.value!r} in expression")


def parse_vhdl(text: str) -> A.DesignFile:
    """Parse VHDL source into a :class:`~repro.hdl.ast.DesignFile`."""
    return Parser(tokenize(text)).parse_design_file()


def check_syntax(text: str) -> tuple[bool, str]:
    """The VHDL Parser tool: syntax-check a source file.

    Returns ``(ok, message)``; mirrors the paper's standalone syntax
    checker which prints a pass/fail message.
    """
    try:
        design = parse_vhdl(text)
    except ValueError as exc:
        return False, f"syntax error: {exc}"
    n_e = len(design.entities)
    n_a = len(design.architectures)
    return True, (f"syntax OK: {n_e} entity(ies), "
                  f"{n_a} architecture(s)")
