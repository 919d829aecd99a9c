import sys
import types

import pytest

import spans


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": attrs}


def test_self_time_subtracts_union_of_children():
    s = [span("cli.main", 0.0, 10.0),
         span("analysis.a", 1.0, 3.0, 0),
         span("analysis.b", 2.0, 4.0, 0),      # overlaps its sibling
         span("dynamics.c", 5.0, 6.0, 0),
         span("protocol.d", 5.5, 5.75, 3),
         span("protocol.e", 9.5, 11.0, 0)]     # runs past its parent
    assert spans.self_times(s) == pytest.approx([10 - 3 - 1 - 0.5, 2, 2, 0.75, 0.25, 1.5])


def test_layer_self_times_partition_root_time():
    s = [span("cli.main", 0.0, 10.0),
         span("cli.cmd_table1", 0.5, 9.5, 0),
         span("analysis.table_one", 1.0, 9.0, 1),
         span("analysis.fit_protocol_pulses", 1.0, 4.0, 2, m=3),
         span("pulsefit.fit_gaussian_sum", 1.0, 2.0, 3, nfev=100, converged=False),
         span("pulsefit.fit_gaussian_sum", 2.0, 3.5, 3, nfev=40, converged=True),
         span("dynamics.propagate_schrodinger", 4.0, 6.0, 2, steps=10_000),
         span("analysis.write_table_csv", 9.0, 9.25, 1),
         span("protocol.design_sta", 6.0, 6.5, 2)]
    m = spans.layer_metrics(s)
    total = sum(m[k] for k in spans.LAYER_TOTALS)
    assert total == pytest.approx(10.0)
    # main 1.0 + cmd_table1 0.75 + the writer 0.25, which counts as cli
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["analysis.self_s"] == pytest.approx(8 - 3 - 2 - 0.5 + 3 - 2.5)
    assert m["analysis.points"] == 1
    assert m["dynamics.schrodinger.ns_per_step"] == pytest.approx(2e9 / 10_000)
    assert m["dynamics.lindblad.calls"] == 0
    assert m["dynamics.lindblad.ns_per_step"] == 0.0
    assert m["pulsefit.fit.calls"] == 2
    assert m["pulsefit.fit.converged_ratio"] == 0.5
    assert m["pulsefit.fit_s.m3"] == pytest.approx(2.5)
    assert m["pulsefit.nfev.m3"] == 140
    assert m["pulsefit.fit_s.m1"] == 0.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.dynamics defines two functions; fakepkg.cli imports one by
    name and registers a command in a dict, as lambda_sta.cli does."""
    pkg = types.ModuleType("fakepkg")
    dyn = types.ModuleType("fakepkg.dynamics")
    cli = types.ModuleType("fakepkg.cli")
    exec("class T:\n    steps = 100\n"
         "def propagate_schrodinger(x):\n    return T()\n"
         "def _private(x):\n    return x\n", dyn.__dict__)
    dyn.propagate_schrodinger.__module__ = dyn.__name__
    cli.propagate_schrodinger = dyn.propagate_schrodinger

    def cmd_run(x):
        return cli.propagate_schrodinger(x)

    def main(x):
        return cli.COMMANDS["run"](x)

    for fn in (cmd_run, main):
        fn.__module__ = cli.__name__
        setattr(cli, fn.__name__, fn)
    cli.COMMANDS = {"run": cmd_run}
    for mod in (pkg, dyn, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, dyn, cli


def test_tracer_patches_every_namespace_and_restores(fake_package):
    _, dyn, cli = fake_package
    original = dyn.propagate_schrodinger
    tracer = spans.Tracer("fakepkg").install()
    cli.main(1)
    tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    assert names == ["cli.main", "cli.cmd_run", "dynamics.propagate_schrodinger"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1]
    assert tracer.spans[2]["attrs"] == {"steps": 100}
    assert dyn.propagate_schrodinger is original
    assert cli.propagate_schrodinger is original
    assert cli.COMMANDS["run"] is cli.cmd_run
    assert "_private" not in " ".join(names)


def test_tracer_records_removed_functions_as_absent(fake_package):
    tracer = spans.Tracer("fakepkg").install()
    tracer.uninstall()
    assert "dynamics.propagate_lindblad" in tracer.absent
    assert "pulsefit.fit_gaussian_sum" in tracer.absent
    assert "cli.main" not in tracer.absent
    assert "dynamics.propagate_schrodinger" not in tracer.absent
