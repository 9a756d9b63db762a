"""Fixed reference computation that measures the machine's current speed.

Run as its own process between benchmark ops: interpreter start plus a
dict-based convolution of big integers and a Fraction sum, the kinds of work
qmoon's ops do.  It imports nothing from qmoon, so a change to qmoon never
changes its cost; only the machine's momentary speed does.
"""

from fractions import Fraction


def work(n=170, rounds=3):
    a = {i: (i * 2654435761 + 12345) ** 5 for i in range(n)}
    acc = {}
    for _ in range(rounds):
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        acc = out
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(acc[k % len(acc)] % 1000 + 1, k)
    return total


if __name__ == "__main__":
    work()
