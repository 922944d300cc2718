"""The benchmark times check-all by wrapping the module attributes listed in
``perfbench/worker.py``; a call that no longer goes through one of them
would silently drop out of its traced work counts."""

from collections import Counter
from pathlib import Path

from orbit_atlas.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_check_all_calls_every_benchmark_span(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import CHECK_SPANS

    calls = Counter()

    def counting(original, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, attr, name, _ in CHECK_SPANS:
        monkeypatch.setattr(module, attr, counting(getattr(module, attr), name))
    assert main(["check-all", "--type", "A2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the numeric witness check is a cross-check that check-all never runs
    missing = [name for _, _, name, _ in CHECK_SPANS
               if name != "witness.numeric" and not calls[name]]
    assert missing == []
