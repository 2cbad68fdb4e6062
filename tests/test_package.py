import pytest

import scorefdr as sf


def test_every_exported_name_resolves_once():
    assert len(set(sf.__all__)) == len(sf.__all__)
    for name in sf.__all__:
        assert getattr(sf, name) is not None, name


@pytest.mark.parametrize("name", ["gamma_at", "rai_omega", "normal_cdf", "normal_ppf",
                                  "DEFAULT_RAI", "BoundScanReport", "bound_scan", "bound_slack"])
def test_retired_aliases_are_gone(name):
    # each computation has one entry point: weight_at for schedules, scipy.special for ndtr/ndtri;
    # and the package holds what runs: the bound scan lives in the tests
    assert not hasattr(sf, name)
