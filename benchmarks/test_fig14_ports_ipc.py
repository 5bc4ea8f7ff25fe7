"""Figure 14 — IPC vs number of L1 ports (PA filter).

Ports come with a latency cost (1/2/3 cycles for 3/4/5 ports), so the
paper measures only +4% mean IPC from 3 to 4 ports and <1% from 4 to 5 —
the take-away being that more ports are not worth the area beyond 4.
"""


def test_fig14_ports_ipc(benchmark, suite):
    result = benchmark.pedantic(suite.figure14, rounds=1, iterations=1)
    print("\n" + result.render())
    mean3, mean4, mean5 = (result.summary[f"mean IPC {p}p"] for p in (3, 4, 5))

    # Diminishing (and latency-taxed) returns: the 4->5 step is no larger
    # than the 3->4 step.
    step34 = mean4 - mean3
    step45 = mean5 - mean4
    assert step45 <= step34 + 0.05 * mean3
    # Every configuration still runs sanely.
    assert all(m > 0 for m in (mean3, mean4, mean5))
