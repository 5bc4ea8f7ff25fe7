"""Figure 16 — IPC with a dedicated 16-entry prefetch buffer.

Paper: combining the buffer with the filters *loses* performance — on
average -9% (PA) and -10% (PC) versus the filters alone, because the tiny
buffer evicts prefetches before use and cannot reduce prefetch traffic.
"""


def test_fig16_buffer_ipc(benchmark, suite):
    result = benchmark.pedantic(suite.figure16, rounds=1, iterations=1)
    print("\n" + result.render())

    # The buffer must not be a win: it never beats the plain filter by much.
    assert result.summary["mean IPC change from buffer (PA) %"] < 5.0
