import pytest

from pwdrecon.harness.experiment import preprocess_record
from pwdrecon.harness.io import load_record
from pwdrecon.harness.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Four preprocessed synthetic records shared across experiment tests."""
    out = str(tmp_path_factory.mktemp("synthds"))
    spec = SyntheticSpec(n_records=4, duration_s=10.0, seed=21)
    manifests = generate_synthetic(spec, out)
    records = []
    for m in manifests:
        rows, img = load_record(m, out)
        records.append(preprocess_record(rows, img, m, seed=0))
    return out, manifests, records
