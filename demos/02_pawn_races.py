"""
Pawn races and the words they build
===================================

The family's thresholds are governed by a merging race of pawns on the
integers.  Enumerate the optimal races, draw them, and convert one into a
shortest synchronizing word.
"""

from carefulsync import (
    build_cerny,
    build_sync_word,
    count_races,
    enumerate_plans,
    f_closed,
    format_word,
    is_sync_word,
    render_race,
    sequences,
    simulate_race,
    twinverse,
)
from carefulsync.pawnrace import plan_text


def race_cost(n, c):
    """The minimum race cost f_c(n), by recursion over every split point."""
    f = [0, 0]
    for m in range(2, n + 1):
        f.append(min(f[i] + f[m - i] + (c + 1) * m - i for i in range(1, m)))
    return f[n]

########################################
## minimum cost, two ways
########################################

print("f(n, c=1) for n = 1..8:", [race_cost(n, 1) for n in range(1, 9)])
print("closed form agrees:    ", [f_closed(n, 1) for n in range(1, 9)])

# the closed form reads off two Fibonacci-flavoured sequences
print("\np_1(k):", [sequences(1, k)[0] for k in range(1, 10)], "(Fibonacci)")
print("p_2(k):", [sequences(2, k)[0] for k in range(1, 12)], "(shifted Padovan)")
print("twinverse m_1(7):", twinverse(1, 7))

########################################
## all optimal races for 7 pawns
########################################

print("\n7 pawns, cost parameter 1:", count_races(7, 1), "optimal races\n")
for plan in enumerate_plans(7, 1):
    trace = simulate_race(plan, 1)
    print(plan_text(plan))
    print(f"cost {trace.cost} = {trace.move_steps} moves + {trace.stay_steps} stays")
    print(render_race(trace))

########################################
## a race becomes a synchronizing word
########################################

member = build_cerny(9, 1)
plan = enumerate_plans(7, 1)[0]
word = build_sync_word(9, 1, plan)
print("word for C(9,1):", format_word(member, word, pretty=True))
print("length", len(word), "- synchronizes:", is_sync_word(member, word))
