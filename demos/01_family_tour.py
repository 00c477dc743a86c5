"""
A tour of the extremal binary family
====================================

Build family members, look at them, and compute their reset thresholds
three independent ways: closed formula, dynamic program, subset search.
"""

from carefulsync import (
    build_cerny,
    format_word,
    optimal_c,
    rt_formula,
    solve,
    to_dot,
)


def race_cost(n, c):
    """The minimum race cost f_c(n), by recursion over every split point."""
    f = [0, 0]
    for m in range(2, n + 1):
        f.append(min(f[i] + f[m - i] + (c + 1) * m - i for i in range(1, m)))
    return f[n]

########################################
## the classical 4-state automaton
########################################

c4 = build_cerny(4, 0)
result = solve(c4)
print("C(4,0) reset threshold:", result.threshold)
print("shortest word:         ", format_word(c4, result.word))

########################################
## a partial member: n=8, c=2
########################################

member = build_cerny(8, 2)
print("\nC(8,2) has", member.defined_count(), "defined transitions;",
      "symbol a is missing on states 6 and 7")
print(to_dot(member))

# three routes to the same number
npr = 8 - 2 - 1
print("formula:       ", rt_formula(8, 2))
print("via recursion: ", npr * (npr - 1) + 2 + 1 + race_cost(npr, 2))
print("subset search: ", solve(member).threshold)

########################################
## the best c for each n
########################################

print("\n n  best  argmax c")
for n in range(2, 16):
    value, argmax = optimal_c(n)
    print(f"{n:>3}  {value:>4}  {sorted(argmax)}")
print("(n=13 is the first double maximum)")
