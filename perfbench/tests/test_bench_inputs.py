from perfbench.workloads import WORKLOADS, criteo_tsv, write_criteo_tsv


def test_criteo_tsv_is_identical_for_a_seed(tmp_path):
    a = write_criteo_tsv(tmp_path / "a.tsv", seed=3, n_lines=400)
    b = write_criteo_tsv(tmp_path / "b.tsv", seed=3, n_lines=400)
    assert a.read_bytes() == b.read_bytes()
    assert criteo_tsv(4, n_lines=400) != criteo_tsv(3, n_lines=400)


def test_criteo_tsv_has_forty_columns_and_both_labels():
    lines = criteo_tsv(5, n_lines=400).splitlines()
    assert len(lines) == 400
    assert {len(line.split("\t")) for line in lines} == {40}
    assert {line.split("\t")[0] for line in lines} == {"0", "1"}


def test_criteo_tsv_parses_with_the_package_reader(tmp_path):
    from dessim.data import read_criteo_batches

    path = write_criteo_tsv(tmp_path / "c.tsv", seed=1, n_lines=400)
    batches = list(read_criteo_batches(str(path), 128, split="train"))
    assert sum(b.batch_size for b in batches) == 400 - 400 // 20


def test_every_workload_runs_a_known_model_kind():
    from dessim.models import MODEL_KINDS

    assert {w.kind for w in WORKLOADS.values()} <= set(MODEL_KINDS)


def test_one_train_call_gives_a_run_enough_steps_for_its_p90():
    from perfbench.stats import min_samples
    from perfbench.workloads import expected_train_steps

    for w in WORKLOADS.values():
        assert expected_train_steps(w) >= min_samples(90), w.name
