"""The weight-preserving bijection between the two diagram models.

Starting from a bumpless diagram, popping the first blank repeatedly
reads off a compatible sequence; the sequence is exactly an ordinary
pipe dream for the same permutation with the same weight.  The map is
invertible by inserting the pairs back in reverse order.
"""

from pipedreams import (
    BumplessPipeDream,
    Permutation,
    bpd_pop,
    phi,
    phi_inverse,
    render,
)


def main():
    pi = Permutation.parse("1432")
    start = BumplessPipeDream.rothe(pi)
    print("Rothe diagram of", pi)
    print(render(start, pretty=True))

    result = phi(start)
    print("\npop trail (letter, row):", result.pops)
    diagram = start
    for step in result.pops:
        diagram = bpd_pop(diagram).result
        print(f"\nafter popping {step}:")
        print(render(diagram, pretty=True))

    seq = result.sequence
    print("\ncompatible sequence a:", seq.a)
    print("compatible sequence r:", seq.r)

    dream = result.pipe_dream()
    print("\nresulting pipe dream:")
    print(render(dream, pretty=True))
    print("same permutation:", dream.perm() == pi)
    print("same weight:", dream.weight() == start.weight())

    back = phi_inverse(dream)
    print("inserting back recovers the diagram:", back == start)


if __name__ == "__main__":
    main()
