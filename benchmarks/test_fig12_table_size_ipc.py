"""Figure 12 — IPC vs history-table size (PA filter).

Paper: IPC rises slightly with table size and saturates at 4096 entries;
growth beyond that is within ~1%.
"""


def test_fig12_table_size_ipc(benchmark, suite):
    result = benchmark.pedantic(suite.figure12, rounds=1, iterations=1)
    print("\n" + result.render())
    mean4k, mean8k, mean16k = (result.summary[f"mean IPC {k}K"] for k in (4, 8, 16))

    # Saturation: doubling past the default moves mean IPC by little.
    assert abs(mean8k - mean4k) / mean4k < 0.05
    assert abs(mean16k - mean4k) / mean4k < 0.05
    # The default must not trail the largest table meaningfully.
    assert mean4k > mean16k * 0.95
