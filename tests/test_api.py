import torusham


def test_star_import_exports_every_name_in_all():
    namespace = {}
    exec("from torusham import *", namespace)
    assert len(set(torusham.__all__)) == len(torusham.__all__)
    for name in torusham.__all__:
        assert namespace[name] is getattr(torusham, name)
