"""Tests for the s-expression reader, message interpreter, and indexes."""

import pytest

from repro import AttributeSpec, Database, SetOf, TopologyError
from repro.query import (
    IndexManager,
    Interpreter,
    Keyword,
    QueryEvaluationError,
    QuerySyntaxError,
    Symbol,
    parse,
    parse_all,
    tokenize,
)
from repro.query.sexpr import QUOTE
from repro.txn import TransactionManager


class TestReader:
    def test_tokenize_basics(self):
        assert tokenize("(a b)") == ["(", "a", "b", ")"]

    def test_tokenize_string(self):
        assert tokenize('(x "hello world")') == ["(", "x", ('"', "hello world"), ")"]

    def test_tokenize_escaped_string(self):
        assert tokenize(r'"a\"b"') == [('"', 'a"b')]

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize('"oops')

    def test_comments_skipped(self):
        assert parse("(a ; a comment\n b)") == [Symbol("a"), Symbol("b")]

    def test_parse_atoms(self):
        assert parse_all("42 -3 2.5 t nil :domain hello") == [
            42, -3, 2.5, True, None, Keyword("domain"), Symbol("hello"),
        ]

    def test_parse_nested(self):
        form = parse("(a (b 1) (c (d)))")
        assert form[0] == Symbol("a")
        assert form[1] == [Symbol("b"), 1]
        assert form[2] == [Symbol("c"), [Symbol("d")]]

    def test_quote(self):
        assert parse("'x") == [QUOTE, Symbol("x")]
        assert parse("'(a b)") == [QUOTE, [Symbol("a"), Symbol("b")]]

    def test_missing_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse("(a (b)")

    def test_stray_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse(")")

    def test_multiple_forms_rejected_by_parse(self):
        with pytest.raises(QuerySyntaxError):
            parse("(a) (b)")


@pytest.fixture
def interp():
    interpreter = Interpreter()
    interpreter.run("""
      (make-class 'AutoBody)
      (make-class 'AutoTires)
      (make-class 'Vehicle
        :attributes '((Color :domain string)
                      (Doors :domain integer :init 4)
                      (Body :domain AutoBody :composite t :exclusive t
                            :dependent nil)
                      (Tires :domain (set-of AutoTires) :composite t
                             :exclusive t :dependent nil)))
    """)
    return interpreter


class TestSchemaMessages:
    def test_make_class_defined(self, interp):
        classdef = interp.db.classdef("Vehicle")
        assert classdef.attribute("Doors").init == 4
        assert classdef.attribute("Body").is_composite
        assert not classdef.attribute("Body").dependent
        assert classdef.attribute("Tires").is_set

    def test_superclasses(self, interp):
        interp.run("(make-class 'Sports :superclasses (Vehicle))")
        assert interp.db.lattice.is_subclass("Sports", "Vehicle")

    def test_versionable_keyword(self, interp):
        interp.run("(make-class 'Design :versionable t)")
        assert interp.db.classdef("Design").versionable

    def test_describe(self, interp):
        text = interp.run_one("(describe Vehicle)")
        assert "make-class 'Vehicle" in text

    def test_class_predicates(self, interp):
        assert interp.run_one("(compositep Vehicle)")
        assert interp.run_one("(compositep Vehicle Body)")
        assert not interp.run_one("(compositep Vehicle Color)")
        assert interp.run_one("(exclusive-compositep Vehicle Body)")
        assert not interp.run_one("(shared-compositep Vehicle Body)")
        assert not interp.run_one("(dependent-compositep Vehicle Body)")


class TestInstanceMessages:
    def test_make_and_get(self, interp):
        interp.run('(setq v (make Vehicle :Color "red"))')
        assert interp.run_one("(get v Color)") == "red"
        assert interp.run_one("(get v Doors)") == 4

    def test_set(self, interp):
        interp.run('(setq v (make Vehicle)) (set v Color "blue")')
        assert interp.run_one("(get v Color)") == "blue"

    def test_make_with_parent(self, interp):
        interp.run("""
          (setq v (make Vehicle))
          (setq b (make AutoBody :parent ((v Body))))
        """)
        v, b = interp.env["v"], interp.env["b"]
        assert interp.db.parents_of(b) == [v]
        assert interp.run_one("(child-of b v)")

    def test_insert_remove(self, interp):
        interp.run("""
          (setq v (make Vehicle))
          (setq t1 (make AutoTires))
          (insert v Tires t1)
        """)
        assert interp.run_one("(get v Tires)") == [interp.env["t1"]]
        assert interp.run_one("(remove v Tires t1)")
        assert interp.run_one("(get v Tires)") == []

    def test_make_part_of_and_remove(self, interp):
        interp.run("""
          (setq v (make Vehicle))
          (setq b (make AutoBody))
          (make-part-of b v Body)
        """)
        assert interp.run_one("(component-of b v)")
        interp.run("(remove-part-of b v Body)")
        assert not interp.run_one("(component-of b v)")

    def test_delete_returns_report(self, interp):
        interp.run("(setq v (make Vehicle))")
        report = interp.run_one("(delete v)")
        assert report.deleted == [interp.env["v"]]

    def test_topology_errors_propagate(self, interp):
        interp.run("""
          (setq b (make AutoBody))
          (setq v1 (make Vehicle :Body b))
          (setq v2 (make Vehicle))
        """)
        with pytest.raises(TopologyError):
            interp.run("(set v2 Body b)")

    def test_unbound_variable(self, interp):
        with pytest.raises(QueryEvaluationError):
            interp.run("(get nobody Color)")

    def test_unknown_message(self, interp):
        with pytest.raises(QueryEvaluationError):
            interp.run("(frobnicate 1)")


class TestTraversalMessages:
    @pytest.fixture
    def loaded(self, interp):
        interp.run("""
          (setq b (make AutoBody))
          (setq t1 (make AutoTires))
          (setq t2 (make AutoTires))
          (setq v (make Vehicle :Body b))
          (insert v Tires t1)
          (insert v Tires t2)
        """)
        return interp

    def test_components_of(self, loaded):
        result = loaded.run_one("(components-of v)")
        assert set(result) == {loaded.env["b"], loaded.env["t1"], loaded.env["t2"]}

    def test_components_with_class_filter(self, loaded):
        result = loaded.run_one("(components-of v (AutoTires))")
        assert set(result) == {loaded.env["t1"], loaded.env["t2"]}

    def test_components_with_level(self, loaded):
        assert loaded.run_one("(components-of v nil nil nil 1)") == \
            loaded.run_one("(components-of v)")

    def test_parents_and_ancestors(self, loaded):
        assert loaded.run_one("(parents-of b)") == [loaded.env["v"]]
        assert loaded.run_one("(ancestors-of t1)") == [loaded.env["v"]]

    def test_predicate_messages(self, loaded):
        assert loaded.run_one("(exclusive-component-of b v)")
        assert not loaded.run_one("(shared-component-of b v)")


class TestSelect:
    @pytest.fixture
    def fleet(self, interp):
        interp.run("""
          (setq r1 (make Vehicle :Color "red" :Doors 2))
          (setq r2 (make Vehicle :Color "red" :Doors 4))
          (setq b1 (make Vehicle :Color "blue" :Doors 4))
        """)
        return interp

    def test_select_all(self, fleet):
        assert len(fleet.run_one("(select Vehicle)")) == 3

    def test_select_equality(self, fleet):
        result = fleet.run_one('(select Vehicle (= Color "red"))')
        assert set(result) == {fleet.env["r1"], fleet.env["r2"]}

    def test_select_comparison(self, fleet):
        result = fleet.run_one("(select Vehicle (> Doors 2))")
        assert set(result) == {fleet.env["r2"], fleet.env["b1"]}

    def test_select_and_or_not(self, fleet):
        result = fleet.run_one(
            '(select Vehicle (and (= Color "red") (= Doors 4)))')
        assert result == [fleet.env["r2"]]
        result = fleet.run_one(
            '(select Vehicle (or (= Doors 2) (= Color "blue")))')
        assert set(result) == {fleet.env["r1"], fleet.env["b1"]}
        result = fleet.run_one('(select Vehicle (not (= Color "red")))')
        assert result == [fleet.env["b1"]]

    def test_select_contains(self, fleet):
        fleet.run("""
          (setq t1 (make AutoTires))
          (insert r1 Tires t1)
        """)
        result = fleet.run_one("(select Vehicle (contains Tires t1))")
        assert result == [fleet.env["r1"]]

    def test_select_none_comparison_safe(self, fleet):
        fleet.run("(setq x (make Vehicle))")  # Color is None
        assert fleet.env["x"] not in fleet.run_one(
            '(select Vehicle (< Color "z"))')

    def test_select_unknown_class(self, fleet):
        with pytest.raises(QueryEvaluationError):
            fleet.run("(select Nothing)")

    def test_select_subclass_instances_included(self, fleet):
        fleet.run("""
          (make-class 'Sports :superclasses (Vehicle))
          (setq s (make Sports :Color "red"))
        """)
        result = fleet.run_one('(select Vehicle (= Color "red"))')
        assert fleet.env["s"] in result


class TestIndexes:
    @pytest.fixture
    def indexed(self, interp):
        interp.run("""
          (create-index Vehicle Color)
          (setq r1 (make Vehicle :Color "red"))
          (setq r2 (make Vehicle :Color "red"))
          (setq b1 (make Vehicle :Color "blue"))
        """)
        return interp

    def test_indexed_select_matches_scan(self, indexed):
        index = indexed.indexes.index_for("Vehicle", "Color")
        before = index.hits
        result = indexed.run_one('(select Vehicle (= Color "red"))')
        assert set(result) == {indexed.env["r1"], indexed.env["r2"]}
        assert index.hits == before + 1  # the index was actually used

    def test_index_follows_updates(self, indexed):
        indexed.run('(set r1 Color "green")')
        assert indexed.run_one('(select Vehicle (= Color "red"))') == \
            [indexed.env["r2"]]
        assert indexed.run_one('(select Vehicle (= Color "green"))') == \
            [indexed.env["r1"]]

    def test_index_follows_deletes(self, indexed):
        indexed.run("(delete r1)")
        assert indexed.run_one('(select Vehicle (= Color "red"))') == \
            [indexed.env["r2"]]

    def test_index_follows_aborted_delete(self):
        # Undo of a delete resurrects the cascade; the index must see the
        # resurrected instances again, not just stop hiding them.
        db = Database()
        db.make_class("Leaf", attributes=[AttributeSpec("Tag", domain="string")])
        db.make_class("Box", attributes=[
            AttributeSpec("L", domain=SetOf("Leaf"), composite=True,
                          exclusive=True, dependent=True),
        ])
        index = IndexManager(db).create_index("Leaf", "Tag")
        box = db.make("Box")
        leaf = db.make("Leaf", values={"Tag": "t"}, parents=[(box, "L")])
        manager = TransactionManager(db)
        txn = manager.begin()
        manager.delete(txn, box)
        assert index.lookup("t") == []
        manager.abort(txn)
        assert index.lookup("t") == [leaf]

    def test_index_validates_stale_entries(self, indexed):
        # Mutate behind the index's back; validation still gives the right
        # answer (the index is a self-verifying hint).
        instance = indexed.db.resolve(indexed.env["r1"])
        instance.set("Color", "black")
        assert indexed.env["r1"] not in indexed.run_one(
            '(select Vehicle (= Color "red"))')

    def test_superclass_index_covers_subclass(self, indexed):
        indexed.run("""
          (make-class 'Sports :superclasses (Vehicle))
          (setq s (make Sports :Color "red"))
        """)
        result = indexed.run_one('(select Sports (= Color "red"))')
        assert result == [indexed.env["s"]]

    def test_create_index_on_unknown_attribute(self, indexed):
        from repro.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            indexed.run("(create-index Vehicle Nope)")

    def test_drop_index(self, indexed):
        assert indexed.indexes.drop_index("Vehicle", "Color")
        assert indexed.indexes.index_for("Vehicle", "Color") is None
        assert not indexed.indexes.drop_index("Vehicle", "Color")


class TestEndToEndScript:
    def test_document_example_via_messages(self):
        interpreter = Interpreter()
        results = interpreter.run("""
          (make-class 'Paragraph :attributes '((Text :domain string)))
          (make-class 'Section
            :attributes '((Content :domain (set-of Paragraph)
                           :composite t :exclusive nil :dependent t)))
          (make-class 'Document
            :attributes '((Title :domain string)
                          (Sections :domain (set-of Section)
                           :composite t :exclusive nil :dependent t)))
          (setq p (make Paragraph :Text "shared"))
          (setq s (make Section))
          (insert s Content p)
          (setq d1 (make Document :Title "A"))
          (setq d2 (make Document :Title "B"))
          (insert d1 Sections s)
          (insert d2 Sections s)
          (ancestors-of p)
          (delete d1)
          (component-of p d2)
        """)
        assert results[-1] is True
        db = interpreter.db
        assert db.exists(interpreter.env["p"])
        db.validate()


class TestCompositePredicatesInSelect:
    @pytest.fixture
    def nested(self, interp):
        interp.run("""
          (setq b (make AutoBody))
          (setq t1 (make AutoTires))
          (setq v (make Vehicle :Body b))
          (insert v Tires t1)
          (setq loose (make AutoTires))
        """)
        return interp

    def test_part_of_predicate(self, nested):
        result = nested.run_one("(select AutoTires (part-of v))")
        assert result == [nested.env["t1"]]

    def test_part_of_excludes_loose_parts(self, nested):
        result = nested.run_one("(select AutoTires (not (part-of v)))")
        assert result == [nested.env["loose"]]

    def test_has_part_predicate(self, nested):
        result = nested.run_one("(select Vehicle (has-part b))")
        assert result == [nested.env["v"]]

    def test_combined_with_value_predicate(self, nested):
        nested.run('(set v Color "red")')
        result = nested.run_one(
            '(select Vehicle (and (= Color "red") (has-part t1)))')
        assert result == [nested.env["v"]]

    def test_instances_of_message(self, nested):
        result = nested.run_one("(instances-of AutoTires)")
        assert set(result) == {nested.env["t1"], nested.env["loose"]}


class TestTopLevelLazyExports:
    def test_lazy_exports_resolve(self):
        import repro

        assert repro.VersionManager.__name__ == "VersionManager"
        assert repro.Interpreter.__name__ == "Interpreter"
        assert repro.CheckoutManager.__name__ == "CheckoutManager"
        assert callable(repro.copy_composite)

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.NoSuchThing


class TestEvolutionMessages:
    @pytest.fixture
    def evolving(self, interp):
        interp.run("""
          (setq b (make AutoBody))
          (setq v (make Vehicle :Body b))
        """)
        return interp

    def test_make_shared_message(self, evolving):
        evolving.run("(make-shared Vehicle Body)")
        assert evolving.db.shared_compositep("Vehicle", "Body")
        # Sharing is now possible.
        evolving.run("(setq v2 (make Vehicle :Body b))")
        assert len(evolving.db.parents_of(evolving.env["b"])) == 2

    def test_make_dependent_deferred(self, evolving):
        evolving.run("(make-dependent Vehicle Body deferred)")
        raw = evolving.db.peek(evolving.env["b"])
        assert not raw.reverse_references[0].dependent  # not yet applied
        evolving.db.resolve(evolving.env["b"])          # access catches up
        assert evolving.db.peek(evolving.env["b"]).reverse_references[0].dependent

    def test_make_noncomposite_message(self, evolving):
        evolving.run("(make-noncomposite Vehicle Body)")
        assert not evolving.db.compositep("Vehicle", "Body")
        assert evolving.db.peek(evolving.env["b"]).reverse_references == []

    def test_drop_attribute_message(self, evolving):
        evolving.run("(drop-attribute Vehicle Color)")
        assert not evolving.db.classdef("Vehicle").has_attribute("Color")

    def test_rename_attribute_message(self, evolving):
        evolving.run("(rename-attribute Vehicle Color Paint)")
        evolving.run('(set v Paint "red")')
        assert evolving.run_one("(get v Paint)") == "red"

    def test_rename_class_message(self, evolving):
        evolving.run("(rename-class Vehicle Car)")
        assert "Car" in evolving.db.lattice
        assert evolving.run_one("(components-of v)") == [evolving.env["b"]]

    def test_drop_class_message(self, evolving):
        evolving.run("(drop-class Vehicle)")
        assert "Vehicle" not in evolving.db.lattice
        assert not evolving.db.exists(evolving.env["v"])

    def test_make_exclusive_composite_from_weak(self, interp):
        interp.run("""
          (make-class 'Holder :attributes '((ref :domain AutoBody)))
          (setq b2 (make AutoBody))
          (setq h (make Holder :ref b2))
          (make-exclusive-composite Holder ref)
        """)
        assert interp.db.exclusive_compositep("Holder", "ref")
        assert interp.db.parents_of(interp.env["b2"]) == [interp.env["h"]]
