"""Text grammar shared by polynomial text (``hompoly.parse_poly``) and
config chart expressions (``config.parse_expr``), each with its own hooks.

A plain token is a number, a name or one other non-space character.  A
monomial run, p[/q]*v^e*...*w (coefficient and exponents optional, no
spaces), followed by '+', '-', ')' or the end, is one token: at a term
start it is a whole term, and anywhere else the parser splits it back
into its plain tokens.  Numbers are ASCII digits only, with re.ASCII: any
other character, a non-ASCII digit or space among them, is a plain token
of its own.
"""

import re

_PLAIN_TOKEN = r"\d+\.\d*|\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\S"
_FACTOR = r"[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?"
TEXT_TOKEN = re.compile(
    rf"(?:\d+(?:/\d+)?\*)?{_FACTOR}(?:\*{_FACTOR})*(?=\s*(?:[-+)]|$))|{_PLAIN_TOKEN}",
    re.ASCII)
_PLAIN = re.compile(_PLAIN_TOKEN, re.ASCII)
_is_run = re.compile(r".+[*^]").match  # a run with an operator; a bare name is plain
# open '(' of a group or a call, unary signs and '^' around a token: deeper
# text is a ValueError, not a RecursionError of the recursive descent
MAX_DEPTH = 100


def parse_text(text: str, hooks):
    """Parse text by the grammar

        expr  := term (('+' | '-') term)*
        term  := unary (('*' | '/') unary)*
        unary := ('-' | '+') unary | atom ['^' unary]
        atom  := number | name | name '(' expr ')' | '(' expr ')'

    building the value only through ``hooks``: number(tok), name(tok),
    call(name, arg), add(a, b), sub(a, b), mul(a, b), div(a, b), neg(a)
    and power(a, b).  A hook raises ValueError for a form its language
    does not accept, and so does text nested deeper than MAX_DEPTH.  A
    hook set with a monomial(run) hook gets each monomial run that makes
    up a whole term in one call; it must give what the plain tokens of the
    run give.
    """
    tokens = TEXT_TOKEN.findall(text)[::-1]  # pop() takes the next token
    monomial = getattr(hooks, "monomial", None)
    depth = 0

    def nested(parse):
        """parse() one level deeper"""
        nonlocal depth
        if depth == MAX_DEPTH:
            raise ValueError(f"text nested deeper than {MAX_DEPTH} levels")
        depth += 1
        value = parse()
        depth -= 1
        return value

    def accept(*ops):
        return tokens.pop() if tokens and tokens[-1] in ops else None

    def expr():
        value = term()
        while op := accept("+", "-"):
            value = (hooks.add if op == "+" else hooks.sub)(value, term())
        return value

    def term():
        if monomial and tokens and _is_run(tokens[-1]):
            return monomial(tokens.pop())  # the run ends at '+', '-', ')' or the end
        value = unary()
        while op := accept("*", "/"):
            value = (hooks.mul if op == "*" else hooks.div)(value, unary())
        return value

    def unary():
        if op := accept("-", "+"):
            value = nested(unary)
            return hooks.neg(value) if op == "-" else value
        base = atom()
        if accept("^"):
            return hooks.power(base, nested(unary))
        return base

    def atom():
        if not tokens:
            raise ValueError("unexpected end of text")
        tok = tokens.pop()
        if _is_run(tok):  # not a whole term: back to plain tokens
            tokens.extend(_PLAIN.findall(tok)[::-1])
            tok = tokens.pop()
        if tok == "(":
            return closed(nested(expr))
        if tok[0] == "_" or tok[0].isalpha():
            if accept("("):
                return hooks.call(tok, closed(nested(expr)))
            return hooks.name(tok)
        if tok.isascii() and (tok[0].isdecimal() or tok[1:].isdecimal()):  # 12, 1.5, 1. or .5
            return hooks.number(tok)
        raise ValueError(f"unexpected token {tok!r}")

    def closed(value):
        if not accept(")"):
            raise ValueError("missing closing parenthesis")
        return value

    value = expr()
    if tokens:
        raise ValueError(f"unexpected token {_PLAIN.match(tokens[-1])[0]!r}")
    return value
