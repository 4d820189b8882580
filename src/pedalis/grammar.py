"""Text grammar shared by polynomial text (``hompoly.parse_poly``) and
config chart expressions (``config.parse_expr``), each with its own hooks.

A plain token is a number, a name or one other non-space character.  A
monomial run is p[/q]*v^e*...*w (coefficient and exponents optional, no
spaces) followed by '+', '-', ')' or the end.  A run sum, 1 to 33 runs
joined by '+' or '-' with an optional leading sign, is one token; a
longer sum is several, each after the first starting with its sign.
Unsigned at the start of an expr, or in place of '+ term' or '- term', it
is a sum of whole terms.  Anywhere else, and after a leading sign, which
is unary, the parser splits its first run back into plain tokens.
Numbers are ASCII digits only, with re.ASCII: any other character, a
non-ASCII digit or space among them, is a plain token of its own.
"""

import re

_PLAIN_TOKEN = r"\d+\.\d*|\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\S"
_FACTOR = r"[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?"
_RUN = rf"(?:\d+(?:/\d+)?\*)?{_FACTOR}(?:\*{_FACTOR})*"
# at most 33 runs a token: the regex engine keeps state for every repeat.  No
# run sum starts right after '*', '/' or '^', where it would split back, so a
# long product is scanned once, not once from each factor.
TEXT_TOKEN = re.compile(rf"(?<![*/^])(?:[-+]\s*)?{_RUN}(?:\s*[-+]\s*{_RUN}){{0,32}}"
                        rf"(?=\s*(?:[-+)]|$))|{_PLAIN_TOKEN}", re.ASCII)
_PLAIN = re.compile(_PLAIN_TOKEN, re.ASCII)
# a run sum that is not a plain token: a sign and more, or a word and an operator
_is_run_sum = re.compile(r"[-+].|\w+[-+*/^\s]", re.ASCII | re.DOTALL).match
# the runs of a run sum with their signs: ("-", "2/3*u1^2"), ("", "u2")
SIGNED_RUN = re.compile(r"([-+]?)\s*([^-+\s]+)")
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
    hook set with a monomial(runs, value=None) hook gets a run sum at the
    start of an expr as monomial(runs), and one in place of '+ term' or
    '- term' as monomial(runs, value), which adds it to value in place.
    It must give what the plain tokens of the runs give, in the same term
    order.  Any other hook set reads the text as plain tokens.
    """
    monomial = getattr(hooks, "monomial", None)
    # pop() takes the next token
    tokens = (TEXT_TOKEN if monomial else _PLAIN).findall(text)[::-1]
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
        if monomial and tokens and _is_run_sum(tok := tokens[-1]) and tok[0] not in "+-":
            value = monomial(tokens.pop())
        else:  # a leading sign is unary: unary() splits a signed run sum
            value = term()
        while tokens and tokens[-1][0] in "+-":
            op = tokens.pop()
            if len(op) > 1:  # a run sum in place of '+ term' or '- term'
                value = monomial(op, value)
            else:
                value = (hooks.add if op == "+" else hooks.sub)(value, term())
        return value

    def term():
        value = unary()
        while op := accept("*", "/"):
            value = (hooks.mul if op == "*" else hooks.div)(value, unary())
        return value

    def unary():
        if tokens and _is_run_sum(tokens[-1]):  # its first run back to plain tokens
            runs = tokens.pop()
            head = SIGNED_RUN.match(runs)
            if rest := runs[head.end():].lstrip():
                tokens.append(rest)  # in place of '+ term' or '- term'
            tokens.extend(_PLAIN.findall(head[0])[::-1])
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
