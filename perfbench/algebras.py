"""Algebra files for the benchmark, in tautilt's text format.

preprojective(n) is the preprojective algebra of the A_n graph: the doubled
quiver with one mesh relation per vertex.  It has (n+1)! support
tau-tilting modules (Mizuno, Math. Z. 2014).  nakayama(n, l) is the
selfinjective cyclic Nakayama algebra with n simples and Loewy length l;
for l >= n it has C(2n, n) support tau-tilting modules (Adachi,
J. Algebra 2016).

Run as a script to print one file:

    python3 perfbench/algebras.py preprojective 4
    python3 perfbench/algebras.py nakayama 6 4
"""

import sys

PRIME = 32003


def preprojective(n: int) -> str:
    """Pi(A_n) with arrows a, b, c, ... (i -> i+1) and astar, bstar, ...
    (i+1 -> i).  Relations come at vertex 1, at vertex n, then at the
    interior vertices, which reproduces the checked-in Pi(A3) file."""
    if not 2 <= n <= 26:
        raise ValueError("preprojective algebras need 2 <= n <= 26")
    names = [chr(ord("a") + i) for i in range(n - 1)]
    lines = [f"# preprojective algebra of the A{n} graph: doubled quiver "
             "with mesh relations", f"field p={PRIME}", f"vertices {n}"]
    for i, a in enumerate(names, start=1):
        lines.append(f"arrow {a} {i} -> {i + 1}")
        lines.append(f"arrow {a}star {i + 1} -> {i}")
    first, last = names[0], names[-1]
    lines += ["relations:", f"{first}*{first}star = 0",
              f"{last}star*{last} = 0"]
    for left, right in zip(names, names[1:]):
        lines.append(f"{left}star*{left} - {right}*{right}star = 0")
    return "\n".join(lines) + "\n"


def nakayama(n: int, loewy: int) -> str:
    """The n-cycle a1: 1 -> 2, ..., an: n -> 1 modulo radical^loewy."""
    if n < 1 or loewy < 2:
        raise ValueError("Nakayama algebras need n >= 1 and loewy >= 2")
    lines = [f"# cyclic Nakayama algebra: {n} vertices, radical^{loewy} zero",
             f"field p={PRIME}", f"vertices {n}"]
    for i in range(1, n + 1):
        lines.append(f"arrow a{i} {i} -> {i % n + 1}")
    lines += ["relations:", f"radical^{loewy}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    kind, *sizes = sys.argv[1:]
    maker = {"preprojective": preprojective, "nakayama": nakayama}[kind]
    sys.stdout.write(maker(*map(int, sizes)))
