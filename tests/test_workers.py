import pytest

from clarity_bench.workers import ordered_map, thread_count


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_thread_count_rejects_bad_setting(monkeypatch, value):
    monkeypatch.setenv("CLARITY_BENCH_THREADS", value)
    with pytest.raises(ValueError, match="CLARITY_BENCH_THREADS"):
        thread_count()


def test_thread_count_reads_setting(monkeypatch):
    monkeypatch.setenv("CLARITY_BENCH_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.delenv("CLARITY_BENCH_THREADS")
    assert 1 <= thread_count() <= 4


def test_ordered_map_keeps_input_order(monkeypatch):
    monkeypatch.setenv("CLARITY_BENCH_THREADS", "2")
    assert ordered_map(lambda x: x * x, range(20)) == [x * x for x in range(20)]
