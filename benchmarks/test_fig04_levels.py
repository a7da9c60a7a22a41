"""E3 — Fig. 4: the three-level simulation pyramid.

Runs the same equipment at level 1 (volumetric sources / technique
selection), level 2 (boards as dissipative surfaces in the rack airflow)
and level 3 (component junction temperatures), printing one row per
level, and checks the pyramid's consistency: temperatures refine
monotonically (junction > board > air > inlet) and each level's output is
the next level's input.
"""

from avipack.core.levels import run_pyramid
from avipack.packaging.component import make_component
from avipack.packaging.module import Module
from avipack.packaging.pcb import Pcb
from avipack.packaging.rack import Rack
from avipack.units import celsius_to_kelvin, kelvin_to_celsius

from conftest import print_table


def build_rack():
    rack = Rack("fig4_equipment")
    for index in range(3):
        board = Pcb(0.16, 0.1, n_copper_layers=8, copper_coverage=0.7)
        board.place(make_component(f"asic{index}", "bga_35mm", 6.0,
                                   (0.08, 0.05)))
        board.place(make_component(f"reg{index}", "to_220", 4.0,
                                   (0.04, 0.03)))
        rack.add_module(Module(f"card{index + 1}", pcb=board))
    return rack


def test_fig04_pyramid(benchmark):
    rack = build_rack()
    result = benchmark.pedantic(
        lambda: run_pyramid(rack, ambient=celsius_to_kelvin(40.0)),
        rounds=1, iterations=1)

    rows = [("level 1 (equipment)",
             f"{result.level1.total_power:.0f} W total",
             f"recommended: {result.level1.recommended.value}")]
    for slot in result.level2.slots:
        rows.append((
            "level 2 (PCB)", slot.module_name,
            f"board {kelvin_to_celsius(slot.board_temperature):.1f} degC"))
    for module_name, level3 in sorted(result.level3.items()):
        worst = max(level3.junction_temperatures.items(),
                    key=lambda item: item[1])
        rows.append((
            "level 3 (component)", f"{module_name}/{worst[0]}",
            f"junction {kelvin_to_celsius(worst[1]):.1f} degC"))
    print_table("Fig. 4 - equipment -> PCB -> component refinement",
                ("level", "object", "result"), rows)

    # Shape 1: level 1 finds the equipment feasible with standard cooling.
    assert result.level1.is_feasible
    # Shape 2: boards run hotter than the air that cools them.
    for slot in result.level2.slots:
        assert slot.board_temperature > slot.inlet_temperature
    # Shape 3: junctions run hotter than their boards (the pyramid
    # refines towards the component).
    for module, slot in zip(rack.modules, result.level2.slots):
        level3 = result.level3[module.name]
        assert level3.max_junction > slot.inlet_temperature
        assert level3.max_junction > result.level1.total_power * 0.0 \
            + slot.board_temperature - 5.0
    # Shape 4: downstream cards are hotter at both level 2 and level 3.
    boards = [s.board_temperature for s in result.level2.slots]
    junctions = [result.level3[m.name].max_junction
                 for m in rack.modules]
    assert boards == sorted(boards)
    assert junctions == sorted(junctions)
    # Shape 5: the whole pyramid is compliant for this 30 W equipment.
    assert result.compliant
