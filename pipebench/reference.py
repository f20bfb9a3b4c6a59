"""Fixed reference task: the yardstick each scan is measured against.

    python3 pipebench/reference.py

Prints the wall time, in seconds, of a fixed amount of pure-Python work
timed inside this process, so interpreter start-up is left out. The work is
of the same kind as a scan (scanning Java-like text character by character
into small objects, counting lexemes in a dict, nesting braces into lists
and walking them recursively), so when other tenants slow the host's
processors the task and the scan slow alike. It imports nothing from the
program under test, so no change to the program can move it.
"""

from __future__ import annotations

import time

TEXT = "".join(
    f"class C{i} extends B{i % 7} {{ int x{i} = {i}; void f(int a, String s) "
    f"{{ if (a > {i}) {{ x{i} = a + s.length(); }} while (a < 3) {{ a++; }} }} }}\n"
    for i in range(300)
)
REPEATS = 12


class Lexeme:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind, self.text, self.pos = kind, text, pos


def scan(text: str) -> list[Lexeme]:
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Lexeme("id", text[i:j], i))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(Lexeme("num", text[i:j], i))
            i = j
        elif c.isspace():
            i += 1
        else:
            out.append(Lexeme("op", c, i))
            i += 1
    return out


def nest(lexemes: list[Lexeme]) -> tuple[list, dict[str, int]]:
    stack: list[list] = [[]]
    counts: dict[str, int] = {}
    for lexeme in lexemes:
        counts[lexeme.text] = counts.get(lexeme.text, 0) + 1
        if lexeme.text == "{":
            stack.append([])
        elif lexeme.text == "}":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append((lexeme.kind, lexeme.text))
    return stack[0], counts


def depth(node: list) -> int:
    return 1 + max((depth(x) for x in node if isinstance(x, list)), default=0)


def work() -> int:
    total = 0
    for _ in range(REPEATS):
        tree, counts = nest(scan(TEXT))
        total += depth(tree) + len(counts)
    return total


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
