"""Destroy scenario through the CLI surface (slowest scenario, kept separate)."""

import json

from skewlab import holonomy
from skewlab.cli import main


def test_destroy_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"destroy": {"epsilon": 0.05, "scan_grid_n": 16}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "destroy"]) == 0
    summary = json.loads((tmp_path / "destroy_summary.json").read_text())
    res = summary["result"]
    assert res["scan_empty"] and res["scan_double_empty"]
    assert res["control_all_trivial"]
    header = (tmp_path / "destroy_scan.csv").read_text().splitlines()[0]
    assert header == "fiber_u,fiber_v,max_displacement,fixed_by_all"


def test_destroy_certifies_every_holonomy_at_the_configured_tol(tmp_path, monkeypatch):
    # every holonomy of the run: destroy's 8 loop legs, 2 centring legs and
    # 1 projection, then the 8 legs of the postcondition scans' generators;
    # the control scan reuses destroy's 8 loop legs
    tols = []
    certify = holonomy._certify
    monkeypatch.setattr(holonomy, "_certify",
                        lambda h, n_max: tols.append(h.tol) or certify(h, n_max))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"holonomy_tol": 1e-7},
                               "destroy": {"epsilon": 0.05, "scan_grid_n": 16}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "destroy"]) == 0
    assert len(tols) == 19 and set(tols) == {1e-7}
