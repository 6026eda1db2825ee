import ducg

from conftest import run_cli


def test_version_flag_reports_package_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ducg {ducg.__version__}"
